import functools
import math
import tracemalloc

import numpy as np
import pytest

from uavlift import cases, objective
from uavlift.channel import lifetime, system_constant
from uavlift.errors import ValidationError
from uavlift.objective import (
    NsdScan,
    UserArrays,
    concavity_certificate,
    gradient,
    hessian,
    nsd_scan,
    user_arrays,
    value,
)
from uavlift.rng import SplitMix64
from uavlift.scenario import (
    ALTITUDE_LIMITS,
    MIN_SIDE,
    AreaBounds,
    UserDevice,
    generate_clustered,
    generate_uniform,
)

BOUNDS = AreaBounds(0, 250, 0, 250, 650, 650)


def random_instance(seed: int, n: int = 20, span: float = 100.0, z_lo=5.0, z_hi=50.0):
    gen = SplitMix64(seed)
    users = [
        UserDevice(gen.uniform(0, span), gen.uniform(0, span), gen.uniform(1.0, 10.0))
        for _ in range(n)
    ]
    z = gen.uniform(z_lo, z_hi)
    point = (gen.uniform(-0.2 * span, 1.2 * span), gen.uniform(-0.2 * span, 1.2 * span))
    return users, z, point


class TestValue:
    def test_single_user_directly_below(self):
        assert value([UserDevice(0, 0, 1.0)], 1.0, (0.0, 0.0)) == 1.0

    def test_single_user_offset(self):
        assert value([UserDevice(0, 0, 1.0)], 1.0, (1.0, 0.0)) == 0.5

    def test_reference_scale_at_center(self):
        # 200 uniform users with the reference energies: the mean-field
        # estimate 200 * 11250 / (650^2 + 2*250^2/12) is about 5.2
        s = generate_uniform(200, BOUNDS, 4500, 18000, seed=9)
        assert 5.1 <= value(s.users, 650.0, (125.0, 125.0)) <= 5.3

    def test_rejects_nonpositive_altitude(self):
        with pytest.raises(ValidationError):
            value([UserDevice(0, 0, 1.0)], 0.0, (0.0, 0.0))

    def test_strictly_decreasing_in_altitude(self):
        users, _, point = random_instance(5)
        values = [value(users, z, point) for z in (10.0, 20.0, 40.0, 80.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestGradient:
    def test_symmetric_pair_cancels(self):
        users = [UserDevice(-3, 0, 7.0), UserDevice(3, 0, 7.0)]
        g = gradient(users, 2.0, (0.0, 0.0))
        assert g == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_single_user_closed_form(self):
        # -2 * 1 * 1 / (1 + 1)^2 = -0.5 in x, 0 in y
        g = gradient([UserDevice(0, 0, 1.0)], 1.0, (1.0, 0.0))
        assert g[0] == pytest.approx(-0.5, rel=1e-12)
        assert g[1] == 0.0

    def test_matches_finite_differences(self):
        from finite_differences import fd_gradient

        for seed in range(25):
            users, z, point = random_instance(seed)
            g = gradient(users, z, point)
            fd = fd_gradient(users, z, point, h=1e-4)
            err = math.hypot(g[0] - fd[0], g[1] - fd[1])
            scale = max(math.hypot(*g), math.hypot(*fd), 1e-12)
            assert err / scale < 1e-6


class TestHessian:
    def test_single_user_directly_below(self):
        h = hessian([UserDevice(0, 0, 1.0)], 1.0, (0.0, 0.0))
        assert h[0][0] == pytest.approx(-2.0, rel=1e-12)
        assert h[1][1] == pytest.approx(-2.0, rel=1e-12)
        assert h[0][1] == 0.0

    def test_symmetric_by_construction(self):
        users, z, point = random_instance(3)
        h = hessian(users, z, point)
        assert h[0][1] == h[1][0]

    def test_matches_finite_differences(self):
        from finite_differences import fd_hessian

        for seed in range(25):
            users, z, point = random_instance(seed)
            h = np.array(hessian(users, z, point))
            fd = np.array(fd_hessian(users, z, point, h=1e-3 * z))
            err = np.linalg.norm(h - fd) / max(np.linalg.norm(h), np.linalg.norm(fd))
            assert err < 1e-4

    def test_per_user_determinant_identity(self):
        # For a single unit-energy user the 2x2 determinant collapses to
        # (-12 dx^2 - 12 dy^2 + 4 z^2) / D^5.
        gen = SplitMix64(17)
        for _ in range(200):
            dx, dy = gen.uniform(-200, 200), gen.uniform(-200, 200)
            z = gen.uniform(5, 700)
            users = [UserDevice(0.0, 0.0, 1.0)]
            h = hessian(users, z, (dx, dy))
            lhs = h[0][0] * h[1][1] - h[0][1] ** 2
            d = dx * dx + dy * dy + z * z
            rhs = (-12 * dx * dx - 12 * dy * dy + 4 * z * z) / d**5
            scale = max(abs(h[0][0] * h[1][1]), h[0][1] ** 2, abs(rhs), 1e-300)
            assert abs(lhs - rhs) / scale < 1e-10


class TestEvaluate:
    """The objective against the channel model: a user's term over K is its lifetime."""

    def test_value_is_constant_times_total_lifetime(self):
        s = generate_uniform(50, BOUNDS, 4500, 18000, seed=2)
        k = system_constant(s.rf, len(s.users))
        point = (100.0, 120.0)
        taus = [lifetime(u.energy, k, math.dist((*point, 650.0), (u.x, u.y, 0)))
                for u in s.users]
        assert value(s.users, 650.0, point) == pytest.approx(k * sum(taus), rel=1e-12)

    def test_per_user_tau_matches_channel_lifetime(self):
        s = generate_uniform(10, BOUNDS, 4500, 18000, seed=4)
        k = system_constant(s.rf, len(s.users))
        point = (30.0, 200.0)
        for u in s.users:
            d = math.sqrt((point[0] - u.x) ** 2 + (point[1] - u.y) ** 2 + 650.0**2)
            tau = value([u], 650.0, point) / k
            assert tau == pytest.approx(lifetime(u.energy, k, d), rel=1e-12)


class TestInvariances:
    def test_energy_scaling(self):
        users, z, point = random_instance(8)
        scaled = [UserDevice(u.x, u.y, 3.0 * u.energy) for u in users]
        assert value(scaled, z, point) == pytest.approx(3.0 * value(users, z, point), rel=1e-12)
        g, gs = gradient(users, z, point), gradient(scaled, z, point)
        assert gs[0] == pytest.approx(3.0 * g[0], rel=1e-12)
        assert gs[1] == pytest.approx(3.0 * g[1], rel=1e-12)

    def test_translation_equivariance(self):
        users, z, point = random_instance(9)
        tx, ty = 17.5, -42.0
        moved = [UserDevice(u.x + tx, u.y + ty, u.energy) for u in users]
        shifted = (point[0] + tx, point[1] + ty)
        assert value(moved, z, shifted) == pytest.approx(value(users, z, point), rel=1e-12)
        assert gradient(moved, z, shifted) == pytest.approx(gradient(users, z, point), rel=1e-9)
        assert np.array(hessian(moved, z, shifted)) == pytest.approx(
            np.array(hessian(users, z, point)), rel=1e-9
        )


class TestConcavityCertificate:
    def test_reference_box_at_650(self):
        cert = concavity_certificate(BOUNDS)
        assert cert.d_max == pytest.approx(353.55, abs=0.01)
        assert cert.threshold == pytest.approx(612.37, abs=0.01)
        assert cert.holds

    def test_reference_box_at_30(self):
        cert = concavity_certificate(AreaBounds(0, 250, 0, 250, 30, 30))
        assert not cert.holds

    def test_smallest_box_holds_from_a_few_millimetres(self):
        # A 1e-9 m box lies below the input domain. Its smallest box, 2^-10 m
        # a side: sqrt(3)*d_max is sqrt(6) 2^-10 m, above the lowest altitude
        # and below 2^-8 m.
        with pytest.raises(ValidationError, match="^bounds require x_max - x_min >= "):
            AreaBounds(0, 1e-9, 0, 1e-9, 1.0, 1.0)
        side, lowest = MIN_SIDE, ALTITUDE_LIMITS[0]
        assert concavity_certificate(AreaBounds(0, side, 0, side, 2.0**-8, 1.0)).holds
        assert not concavity_certificate(AreaBounds(0, side, 0, side, lowest, 1.0)).holds


class TestCurvatureBounds:
    DIAGONAL = math.hypot(250.0, 250.0)

    def test_largest_double_energy(self):
        # 2E and E*(2z^2 - 6r^2) overflow, although both bounds are about 1e-3
        def bounds(energy):
            return objective.curvature_bounds([UserDevice(125.0, 125.0, energy)], 650.0, self.DIAGONAL)

        lo, hi = bounds(1.7e308)
        assert math.isfinite(lo) and lo < 0 and math.isfinite(hi) and hi < 0
        # a power of two scales both bounds exactly or to within rounding
        lo_small, hi_small = bounds(1.7e308 / 2**64)
        assert lo == lo_small * 2**64
        assert hi == pytest.approx(hi_small * 2**64, rel=1e-14)

    def test_altitude_beyond_cube_overflow(self):
        # (r^2 + z^2)^3 overflowed at z = 1e52 m, beyond the input domain; at
        # its highest altitude, 2^24 m, every user's Hessian over the 250 m box
        # is -2E/z^4 times the identity to within 1e-9
        with pytest.raises(ValidationError, match=r"^bounds\.z_min must lie in "):
            AreaBounds(0, 250, 0, 250, 1e52, 1e52)
        z = ALTITUDE_LIMITS[1]
        users = generate_uniform(200, AreaBounds(0, 250, 0, 250, z, z), 4500, 18000, seed=9).users
        lo, hi = objective.curvature_bounds(users, z, self.DIAGONAL)
        assert math.isfinite(lo) and lo < 0 and math.isfinite(hi) and hi < 0
        assert hi == pytest.approx(lo, rel=1e-9)

    @pytest.mark.parametrize("z", [30.0, 448.0, 650.0])
    def test_per_user_reaches_within_one_reach(self, z):
        users = generate_uniform(200, BOUNDS, 4500, 18000, seed=9).users
        n = len(users)
        for reach in (0.0, 100.0, 0.5 * z, z, self.DIAGONAL, 2.0 * z, math.inf):
            lo, hi = objective.curvature_bounds(users, z, reach)
            lo_each, hi_each = objective.curvature_bounds(users, z, np.full(n, reach))
            assert lo_each == lo
            assert hi_each == hi
        # each user's own reach, at most the diagonal, bounds no higher
        reach = np.linspace(0.0, self.DIAGONAL, n)
        _, hi_each = objective.curvature_bounds(users, z, reach)
        assert hi_each <= objective.curvature_bounds(users, z, self.DIAGONAL)[1]


CANNED_LAYOUTS = {
    "uniform": lambda: generate_uniform(cases.UNIFORM_USERS, cases.BOUNDS, *cases.ENERGY, cases.SEED),
    "clustered": lambda: generate_clustered((cases.DENSE, cases.SPARSE), cases.BOUNDS, cases.SEED),
}


class TestNsdScan:
    def test_concave_altitude_passes(self):
        s = generate_uniform(200, BOUNDS, 4500, 18000, seed=9)
        for seed in (0, 1, 2):
            scan = nsd_scan(s.users, 650.0, BOUNDS, samples=400, seed=seed)
            assert scan == NsdScan("proven", pytest.approx(-8.132e-06, rel=1e-4))

    def test_low_altitude_produces_witness(self):
        s = generate_uniform(200, BOUNDS, 4500, 18000, seed=9)
        scan = nsd_scan(s.users, 30.0, BOUNDS, samples=400, seed=0)
        assert scan.outcome == "refuted"
        assert scan.eigenvalue > 0
        wx, wy = scan.witness
        assert 0 <= wx <= 250 and 0 <= wy <= 250
        (fxx, fxy), (_, fyy) = hessian(s.users, 30.0, scan.witness)
        assert np.linalg.eigvalsh([[fxx, fxy], [fxy, fyy]]).max() == pytest.approx(scan.eigenvalue)

    def test_single_user_below_is_negative_definite(self):
        box = AreaBounds(49.999, 50.001, 49.999, 50.001, 5, 5)
        scan = nsd_scan([UserDevice(50, 50, 3.0)], 5.0, box, samples=10, seed=1)
        assert scan.outcome == "proven"
        assert scan.hi < 0

    def test_certificate_implies_all_nsd_everywhere_sampled(self):
        s = generate_uniform(60, BOUNDS, 4500, 18000, seed=12)
        cert = concavity_certificate(BOUNDS)
        assert cert.holds
        for seed in range(5):
            assert nsd_scan(s.users, 650.0, BOUNDS, samples=200, seed=seed).outcome == "proven"

    def test_scale_free_under_energy_scaling(self):
        s = generate_uniform(40, BOUNDS, 4500, 18000, seed=13)
        big = [UserDevice(u.x, u.y, 1e6 * u.energy) for u in s.users]
        scan, scan_big = (nsd_scan(u, 650.0, BOUNDS, samples=200, seed=0) for u in (s.users, big))
        assert scan_big.outcome == "proven"
        assert scan_big.hi == pytest.approx(1e6 * scan.hi, rel=1e-12)

    def test_samples_prove_nothing(self):
        # At 440 m none of the canned layout's 1 000 samples has a positive
        # eigenvalue, but the per-user bound proves concavity only from about
        # 448 m up, so the scan must not report concavity.
        s = generate_uniform(cases.UNIFORM_USERS, cases.BOUNDS, *cases.ENERGY, cases.SEED)
        scan = nsd_scan(s.users, 440.0, cases.BOUNDS, samples=cases.SCAN_SAMPLES, seed=cases.SEED)
        assert scan == NsdScan("undecided", pytest.approx(1.678e-06, rel=1e-3))

    @pytest.mark.parametrize("z", [448.0, 500.0, 650.0])
    @pytest.mark.parametrize("layout", ["uniform", "clustered"])
    def test_proof_bounds_every_sampled_eigenvalue(self, layout, z):
        users = CANNED_LAYOUTS[layout]().users
        b = cases.BOUNDS
        scan = nsd_scan(users, z, b, samples=1)
        assert scan.outcome == "proven"
        d_max = math.hypot(b.x_max - b.x_min, b.y_max - b.y_min)
        assert scan.hi <= objective.curvature_bounds(users, z, d_max)[1]
        corners = [(x, y) for x in (b.x_min, b.x_max) for y in (b.y_min, b.y_max)]
        for point in corners + scan_points(b, 1000, seed=5).tolist():
            assert np.linalg.eigvalsh(hessian(users, z, point)).max() <= scan.hi, point

    def test_rejects_bad_arguments(self):
        users = [UserDevice(50, 50, 3.0)]
        with pytest.raises(ValidationError, match="samples"):
            nsd_scan(users, 650.0, BOUNDS, samples=0)
        for z in (0.0, math.nextafter(ALTITUDE_LIMITS[0], 0.0), math.nextafter(ALTITUDE_LIMITS[1], math.inf)):
            with pytest.raises(ValidationError, match="^z_min must lie in "):
                nsd_scan(users, z, BOUNDS)
            for kernel in (value, gradient, hessian):
                with pytest.raises(ValidationError, match="^z_min must lie in "):
                    kernel(users, z, (50.0, 50.0))
            with pytest.raises(ValidationError, match="^z_min must lie in "):
                objective.curvature_bounds(users, z)


class TestUserArrays:
    def test_prebuilt_arrays_pass_through(self):
        arrays = user_arrays(generate_uniform(10, BOUNDS, 4500, 18000, seed=9).users)
        assert isinstance(arrays, UserArrays)
        assert user_arrays(arrays) is arrays

    @pytest.mark.parametrize("n", [1, 10, 2000])
    def test_kernels_agree_bit_for_bit_on_prebuilt_arrays(self, n):
        users = generate_uniform(n, BOUNDS, 4500, 18000, seed=n).users
        arrays = user_arrays(users)
        point = (97.25, 141.5)

        def as_hex(result):
            if isinstance(result, tuple):
                return tuple(as_hex(r) for r in result)
            return result.hex() if isinstance(result, float) else result

        for kernel in (value, gradient, hessian):
            assert as_hex(kernel(arrays, 650.0, point)) == as_hex(kernel(users, 650.0, point))
        for z in (650.0, 30.0):
            on_arrays, on_users = (nsd_scan(u, z, BOUNDS, samples=50, seed=n) for u in (arrays, users))
            assert as_hex(on_arrays) == as_hex(on_users)

    def test_scenario_users_give_their_arrays_without_a_copy(self):
        users = generate_uniform(10, BOUNDS, 4500, 18000, seed=9).users
        assert user_arrays(users) is users.arrays
        assert user_arrays(users[2:5]).xs.base is not None

    @pytest.mark.parametrize("n", [1, 10, 2000])
    def test_kernels_agree_bit_for_bit_on_a_device_sequence(self, n):
        users = generate_uniform(n, BOUNDS, 4500, 18000, seed=n).users
        devices = tuple(users)
        built = user_arrays(devices)
        for mine, theirs in zip(built, users.arrays):
            assert mine.tobytes() == theirs.tobytes()
        point = (97.25, 141.5)
        for kernel in (value, gradient, hessian):
            assert repr(kernel(devices, 650.0, point)) == repr(kernel(users, 650.0, point))
        for z in (650.0, 30.0):
            assert repr(nsd_scan(devices, z, BOUNDS, samples=50, seed=n)) == repr(
                nsd_scan(users, z, BOUNDS, samples=50, seed=n)
            )


# The Hessian kernel as it was before it computed its blocks in place, kept
# as the bit-for-bit reference: a fresh temporary for every operation.
def reference_hessian_sums(users, z_min, px, py):
    xs, ys, es = user_arrays(users)
    dx = px - xs
    dy = py - ys
    d3 = dx**2 + dy**2 + z_min**2
    d3 **= 3
    z2 = z_min**2
    fxx = np.sum(es * (6.0 * dx**2 - 2.0 * dy**2 - 2.0 * z2) / d3, axis=-1)
    fyy = np.sum(es * (6.0 * dy**2 - 2.0 * dx**2 - 2.0 * z2) / d3, axis=-1)
    fxy = np.sum(es * 8.0 * dx * dy / d3, axis=-1)
    return fxx, fyy, fxy


def reference_hessian(users, z_min, point):
    fxx, fyy, fxy = (float(f) for f in reference_hessian_sums(users, z_min, *point))
    return ((fxx, fxy), (fxy, fyy))


def scan_points(bounds, samples, seed):
    return SplitMix64(seed).uniforms(
        (samples, 2), np.array([bounds.x_min, bounds.y_min]), np.array([bounds.x_max, bounds.y_max])
    )


def reference_nsd_scan(users, z_min, bounds, samples, seed):
    """The scan spelled out: each user's reach the largest of its four
    corner distances, the plain per-user eigenvalue peak E*h(min(r, z)), and
    the samples' Hessians from the reference kernel."""
    xs, ys, es = user_arrays(users)
    corners = [(x, y) for x in (bounds.x_min, bounds.x_max) for y in (bounds.y_min, bounds.y_max)]
    r2 = np.minimum(np.max([(xs - x) ** 2 + (ys - y) ** 2 for x, y in corners], axis=0), z_min**2)
    hi = float(np.sum(es * (6.0 * r2 - 2.0 * z_min**2) / (r2 + z_min**2) ** 3))
    if hi < 0:
        return NsdScan("proven", hi)
    for x, y in scan_points(bounds, samples, seed):
        (fxx, fxy), (_, fyy) = reference_hessian(users, z_min, (x, y))
        lam_max = 0.5 * (fxx + fyy) + math.sqrt((0.5 * (fxx - fyy)) ** 2 + fxy**2)
        if lam_max > 0:
            return NsdScan("refuted", hi, (float(x), float(y)), lam_max)
    return NsdScan("undecided", hi)


def hex_tree(result):
    if isinstance(result, tuple):
        return tuple(hex_tree(r) for r in result)
    return result.hex() if isinstance(result, float) else result


@functools.cache
def canned_users(n):
    return generate_uniform(n, BOUNDS, 4500, 18000, seed=n).users


class TestHessianKernelAgainstReference:
    """The one-point Hessian and the scan against the allocating kernel."""

    @pytest.mark.parametrize("samples", [1, 7, 81, 82, 1000])
    @pytest.mark.parametrize("n", [1, 2, 200, 2000, 12000])
    def test_scan_is_bit_identical(self, n, samples):
        # The witness and its eigenvalue have the reference's bits; the bound
        # is the same sum in its scaled form.
        users = canned_users(n)
        for z in (650.0, 30.0, 10.0):
            scan = nsd_scan(users, z, BOUNDS, samples=samples, seed=samples)
            reference = reference_nsd_scan(users, z, BOUNDS, samples, samples)
            assert scan.hi == pytest.approx(reference.hi, rel=1e-12)
            assert hex_tree(scan._replace(hi=0.0)) == hex_tree(reference._replace(hi=0.0)), z

    @pytest.mark.parametrize("n", [1, 2, 200, 12000])
    def test_hessian_is_bit_identical(self, n):
        users = canned_users(n)
        above = (float(users.arrays.xs[0]), float(users.arrays.ys[0]))  # directly above user 0
        for point in (above, (97.25, 141.5), (0.0, 250.0), (-1e3, 3e4)):
            for z in (650.0, 30.0, 10.0):
                assert hex_tree(hessian(users, z, point)) == hex_tree(
                    reference_hessian(users, z, point)
                ), (point, z)

    @pytest.mark.parametrize("n", [200, 12000])
    def test_scan_memory_stays_cache_sized(self, n):
        users = canned_users(n)
        tracemalloc.start()
        try:
            nsd_scan(users, 30.0, BOUNDS, samples=1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, peak

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavlift.channel import (
    SPEED_OF_LIGHT,
    lifetime,
    path_loss,
    rate,
    required_power,
    system_constant,
)
from uavlift.errors import ValidationError
from uavlift.scenario import DEFAULT_RF, RfParams

C_ROUNDED = 3e8


def unit_constant() -> float:
    """Inputs chosen so every factor of the derivation equals one: the
    exponent is 1, the noise is 1 W and the frequency is c/(4*pi)."""
    rf = RfParams(
        rate=1.0, bandwidth=1.0, noise=1.0,
        frequency=SPEED_OF_LIGHT / (4.0 * math.pi), p_max=1.0, tau_th=1.0,
    )
    return system_constant(rf, 1)


class TestPathLoss:
    def test_unit_loss_distance(self):
        f = 4e9
        d = SPEED_OF_LIGHT / (4.0 * math.pi * f)
        assert path_loss(d, f) == pytest.approx(1.0, rel=1e-12)

    def test_hand_evaluated_reference(self):
        # (4*pi*650*4e9/3e8)^2 evaluated by hand
        assert path_loss(650.0, 4e9, c=C_ROUNDED) == pytest.approx(1.1861e10, rel=1e-4)

    def test_quadratic_law(self):
        assert path_loss(1300.0, 4e9) == pytest.approx(4.0 * path_loss(650.0, 4e9), rel=1e-12)

    @given(st.floats(1.0, 1e5), st.floats(1e8, 1e11))
    def test_formula_identity(self, d, f):
        # loss * (c / (4*pi*f))^2 / d^2 == 1
        scale = (SPEED_OF_LIGHT / (4.0 * math.pi * f)) ** 2
        assert path_loss(d, f) * scale / d**2 == pytest.approx(1.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            path_loss(0.0, 4e9)
        with pytest.raises(ValidationError):
            path_loss(100.0, -1.0)


class TestRate:
    def test_snr_one_gives_one_bit_per_hz(self):
        assert rate(1e6, 2.0, 4.0, 0.5) == pytest.approx(1e6, rel=1e-12)

    def test_vanishing_power_vanishing_rate(self):
        assert rate(1e6, 1e-30, 1.0, 1.0) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            rate(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            rate(1e6, 1.0, 1.0, 0.0)

    @given(st.floats(10.0, 2000.0), st.integers(1, 400))
    @settings(max_examples=60)
    def test_inverse_consistency_with_required_power(self, distance, users):
        # Feeding the minimum power back through the rate formula returns
        # the configured rate.
        rf = DEFAULT_RF
        k = system_constant(rf, users)
        loss = path_loss(distance, rf.frequency)
        p = required_power(k, distance)
        achieved = rate(rf.bandwidth / users, p, loss, rf.noise)
        assert achieved == pytest.approx(rf.rate, rel=1e-9)


class TestSystemConstant:
    def test_reference_parameters(self):
        k = system_constant(DEFAULT_RF, 200, c=C_ROUNDED)
        # hand evaluation: (2^16 - 1) * 1e-14 * (4*pi*4e9/3e8)^2
        assert k == pytest.approx(1.8398e-5, rel=1e-4)

    def test_published_ratio_cross_check(self):
        # reference optimal cost / reference lifetime = 5.19 / 282096
        k = system_constant(DEFAULT_RF, 200, c=C_ROUNDED)
        assert k == pytest.approx(5.19 / 282096.0, rel=5e-3)

    def test_exact_si_speed_of_light_differs_slightly(self):
        k_si = system_constant(DEFAULT_RF, 200)
        k_rounded = system_constant(DEFAULT_RF, 200, c=C_ROUNDED)
        assert k_si != k_rounded
        assert k_si == pytest.approx(k_rounded, rel=3e-3)

    def test_exponent_overflow_is_input_error(self):
        rf = RfParams(rate=4e6, bandwidth=1e3, noise=1e-14, frequency=4e9, p_max=0.5, tau_th=900)
        with pytest.raises(ValidationError, match=r"rate\*user_count/bandwidth = 800000.0 would overflow 2\^x"):
            system_constant(rf, 200)

    def test_user_count_precondition(self):
        with pytest.raises(ValidationError):
            system_constant(DEFAULT_RF, 0)

    def test_underflow_to_zero_is_rejected(self):
        # 2^(1e-10 * 5 / 1e10) - 1 rounds to 0.0, and a zero K would make
        # every range infinite
        rf = RfParams(rate=1e-10, bandwidth=1e10, noise=1e-14, frequency=4e9, p_max=0.5, tau_th=900)
        with pytest.raises(ValidationError, match="system constant must be positive, got 0.0"):
            system_constant(rf, 5)

    def test_overflow_to_inf_is_rejected(self):
        # a finite exponent, but 65535 * 1e300 * (4*pi*f/c)^2 overflows, and an
        # infinite K would make every range and lifetime 0
        rf = RfParams(rate=4e6, bandwidth=50e6, noise=1e300, frequency=4e9, p_max=0.5, tau_th=900)
        with pytest.raises(ValidationError, match="system constant overflows to inf"):
            system_constant(rf, 200)


class TestRequiredPower:
    def test_unit_constant_unit_distance(self):
        assert required_power(unit_constant(), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_reference_distance_exceeds_power_budget(self):
        k = system_constant(DEFAULT_RF, 200, c=C_ROUNDED)
        p = required_power(k, 650.0)
        assert p == pytest.approx(7.773, abs=0.01)
        assert p > DEFAULT_RF.p_max

    def test_monotone_in_distance(self):
        k = unit_constant()
        powers = [required_power(k, d) for d in (1.0, 2.0, 5.0, 100.0)]
        assert powers == sorted(powers)


class TestLifetime:
    def test_energy_equal_power_cost_gives_one_second(self):
        k = unit_constant()
        assert lifetime(required_power(k, 3.0), k, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_hand_evaluated_reference(self):
        # 11250 / (K * 432917) with K from the reference parameters
        k = system_constant(DEFAULT_RF, 200, c=C_ROUNDED)
        assert lifetime(11250.0, k, math.sqrt(432917.0)) == pytest.approx(1412.46, abs=0.1)

    def test_linear_in_energy(self):
        k = unit_constant()
        assert lifetime(20.0, k, 7.0) == pytest.approx(2.0 * lifetime(10.0, k, 7.0), rel=1e-12)

    @given(st.floats(1.0, 1e6), st.floats(0.5, 5e3))
    @settings(max_examples=60)
    def test_lifetime_times_power_is_energy(self, energy, distance):
        k = system_constant(DEFAULT_RF, 200)
        tau = lifetime(energy, k, distance)
        assert tau * required_power(k, distance) == pytest.approx(energy, rel=1e-12)

"""Free-space channel math: path loss, rate, minimum power, lifetime.

Everything here is linear scale (watts, joules, meters); nothing is in dB.
The one modelling constant that matters downstream is the system constant
K, a plain float in watts per square meter: the minimum transmit power to
sustain the common rate at distance d is K*d^2, and the transmission
lifetime of a device with energy E is then E/(K*d^2).
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .scenario import RfParams

# Exact SI value, the only c. The bundled reproduction cases reach the paper's
# rounded 3e8 m/s through their radio set's frequency, `cases.RF`.
SPEED_OF_LIGHT = 299_792_458.0

# 2^x overflows a double near x = 1024; refuse well before that.
_MAX_RATE_EXPONENT = 1000.0


def path_loss(distance: float, frequency: float) -> float:
    """Free-space loss factor (4*pi*distance*frequency/c)^2, dimensionless."""
    if not distance > 0:
        raise ValidationError(f"distance must be positive, got {distance}")
    if not frequency > 0:
        raise ValidationError(f"frequency must be positive, got {frequency}")
    return (4.0 * math.pi * distance * frequency / SPEED_OF_LIGHT) ** 2


def rate(bandwidth_per_user: float, power: float, loss: float, noise: float) -> float:
    """Achievable uplink rate bandwidth_per_user * log2(1 + (power/loss)/noise) in bits/s."""
    for name, value in (
        ("bandwidth_per_user", bandwidth_per_user),
        ("power", power),
        ("loss", loss),
        ("noise", noise),
    ):
        if not value > 0:
            raise ValidationError(f"{name} must be positive, got {value}")
    return bandwidth_per_user * math.log2(1.0 + power / loss / noise)


def system_constant(rf: RfParams, user_count: int) -> float:
    """K in watts per square meter for the radio parameters and the number
    of served devices:

    K = (2^(rate*user_count/bandwidth) - 1) * noise * (4*pi*frequency/c)^2
    """
    if user_count < 1:
        raise ValidationError(f"user_count must be >= 1, got {user_count}")
    exponent = rf.rate * user_count / rf.bandwidth
    if exponent > _MAX_RATE_EXPONENT:
        raise ValidationError(
            f"rate*user_count/bandwidth = {exponent:.1f} would overflow 2^x; "
            "review the rate, user count, or bandwidth"
        )
    k = (2.0 ** exponent - 1.0) * rf.noise * (4.0 * math.pi * rf.frequency / SPEED_OF_LIGHT) ** 2
    if not k > 0:  # 2^x - 1 underflows to 0 for a tiny exponent
        raise ValidationError(f"system constant must be positive, got {k}")
    if k == math.inf:  # a huge noise or frequency overflows the product
        raise ValidationError(f"system constant overflows to {k}; review the noise or frequency")
    return k


def required_power(k: float, distance: float) -> float:
    """Minimum transmit power K*d^2 in watts to sustain the common rate at distance d."""
    if not distance > 0:
        raise ValidationError(f"distance must be positive, got {distance}")
    return k * distance * distance


def lifetime(energy: float, k: float, distance: float) -> float:
    """Transmission duration E/(K*d^2) in seconds for a device with energy E at distance d."""
    if not energy > 0:
        raise ValidationError(f"energy must be positive, got {energy}")
    return energy / required_power(k, distance)

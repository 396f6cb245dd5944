"""Finite-difference derivatives of `objective.value`, the tests' reference
for the analytic gradient and Hessian."""

from __future__ import annotations

from typing import Sequence

from uavlift.errors import ValidationError
from uavlift.objective import value
from uavlift.scenario import UserDevice


def fd_gradient(
    users: Sequence[UserDevice],
    z_min: float,
    point: tuple[float, float],
    h: float = 1e-4,
) -> tuple[float, float]:
    """Central-difference gradient (F(p+h) - F(p-h)) / 2h, one axis at a time."""
    if not h > 0:
        raise ValidationError(f"step h must be positive, got {h}")
    x, y = point
    gx = (value(users, z_min, (x + h, y)) - value(users, z_min, (x - h, y))) / (2.0 * h)
    gy = (value(users, z_min, (x, y + h)) - value(users, z_min, (x, y - h))) / (2.0 * h)
    return (gx, gy)


def fd_hessian(
    users: Sequence[UserDevice],
    z_min: float,
    point: tuple[float, float],
    h: float = 1e-2,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Second-order central-difference Hessian; the mixed entry is computed
    once from the four-corner stencil, so the result is symmetric by
    construction."""
    if not h > 0:
        raise ValidationError(f"step h must be positive, got {h}")
    x, y = point

    def f(px, py):
        return value(users, z_min, (px, py))

    f0 = f(x, y)
    fxx = (f(x + h, y) - 2.0 * f0 + f(x - h, y)) / h**2
    fyy = (f(x, y + h) - 2.0 * f0 + f(x, y - h)) / h**2
    fxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4.0 * h**2)
    return ((fxx, fxy), (fxy, fyy))

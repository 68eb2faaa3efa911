"""Small argument-validation helpers used across the library.

These raise :class:`repro.exceptions.ConfigurationError` with a uniform
message format, so API misuse surfaces as a library error rather than a bare
``ValueError`` deep inside numpy.
"""

from __future__ import annotations

import math
from typing import Final

from repro.exceptions import ConfigurationError

#: The library-wide float slack for capacity-feasibility comparisons.
#: Every check of the form ``load + demand <= capacity`` uses this same
#: tolerance (game feasibility, greedy placement, the Appro repair pass,
#: assignment validation), so a demand that exactly equals the residual
#: capacity is feasible everywhere or nowhere — never only in some layers.
#: Enforced mechanically by reprolint rule R2 (see docs/static_analysis.md).
CAPACITY_EPS: Final[float] = 1e-9


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0`` (and finite); return it for chaining."""
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Require ``value >= 0`` (and finite); return it for chaining."""
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be non-negative and finite, got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_int_at_least(value: int, minimum: int, name: str) -> int:
    """Require an integer ``value >= minimum``; return it for chaining."""
    if int(value) != value:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


__all__ = [
    "CAPACITY_EPS",
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_int_at_least",
]

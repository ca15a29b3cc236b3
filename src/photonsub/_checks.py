"""Argument checks shared by the parameter classes and the closed-form oracles."""

from __future__ import annotations

import math


def check_finite(**values: float) -> None:
    """Reject NaN and infinite values, naming the offending argument."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def check_unit_interval(**values: float) -> None:
    """Reject values outside [0, 1]; NaN fails the comparison too."""
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")

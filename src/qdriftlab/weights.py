"""Hamiltonian errors and the aggregate weight profile (L, lam, lam_max).

This module imports no numpy, so a run that costs a profile given as
numbers (``cost``, ``sweep`` and ``phase-est`` with ``--L/--Lambda/--lambda``)
loads none.  ``hamiltonian`` re-exports each name, the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Float summation noise allowance for the lam <= lam_max * L invariant
# (e.g. 0.1 + 0.1 + 0.1 rounds above 0.3).
_AGG_RTOL = 1e-12


class HamiltonianError(ValueError):
    """Invalid Hamiltonian data (domain errors)."""


class HamiltonianParseError(HamiltonianError):
    """Malformed hamtxt input; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class WeightProfile:
    """Aggregate view (L, lam, lam_max) detached from explicit Pauli data."""

    L: int
    lam: float
    lam_max: float

    def __post_init__(self):
        if self.L < 1:
            raise HamiltonianError(f"L must be >= 1, got {self.L}")
        for name, value in (("lam", self.lam), ("lam_max", self.lam_max)):
            if not (math.isfinite(value) and value > 0):
                raise HamiltonianError(f"{name} must be finite and > 0, got {value!r}")
        if self.lam_max > self.lam * (1 + _AGG_RTOL):
            raise HamiltonianError(f"lam_max={self.lam_max} exceeds lam={self.lam}")
        if self.lam > self.lam_max * self.L * (1 + _AGG_RTOL):
            raise HamiltonianError(
                f"lam={self.lam} exceeds lam_max*L={self.lam_max * self.L}"
            )

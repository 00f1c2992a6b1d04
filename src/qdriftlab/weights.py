"""Hamiltonian errors, the aggregate weight profile (L, lam, lam_max), and
``Record``, the base of the package's immutable records.

This module imports no numpy, so a run that costs a profile given as
numbers (``cost``, ``sweep`` and ``phase-est`` with ``--L/--Lambda/--lambda``)
loads none.  ``hamiltonian`` re-exports the error and profile names, the
same objects.
"""

from __future__ import annotations

import math

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


# A record's == and hash, written out for its fields as dataclasses writes
# them: one tuple of attribute loads per side.  A generic comparison (one
# operator.attrgetter per class) measured about 1.7x slower.
_COMPARE = """
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({own},) == ({other},)
    return NotImplemented

def __hash__(self):
    return hash(({own},))
"""


class Record:
    """Base of an immutable record whose fields are its ``__slots__``.

    A subclass lists its own fields in ``__slots__`` and sets each once, in
    its ``__init__``, through ``object.__setattr__``; afterwards assignment
    and deletion raise AttributeError.  Records of one class compare and
    hash by their fields, in order, and print as
    ``WeightProfile(L=2, lam=1.0, lam_max=0.5)``, as a frozen dataclass
    does.  A record pickles and copies by calling its class with its
    fields, so the copy is checked again.  A fresh CLI launch pays for
    each class it loads: ``dataclasses`` would add its import (with
    ``inspect`` and ``ast``) and about 0.7 ms per class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__slots__", ()))
        namespace: dict = {}
        exec(
            _COMPARE.format(
                own=", ".join(f"self.{name}" for name in cls._fields),
                other=", ".join(f"other.{name}" for name in cls._fields),
            ),
            namespace,
        )
        cls.__eq__ = namespace["__eq__"]
        cls.__hash__ = namespace["__hash__"]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class WeightProfile(Record):
    """Aggregate view (L, lam, lam_max) detached from explicit Pauli data."""

    __slots__ = ("L", "lam", "lam_max")

    def __init__(self, L: int, lam: float, lam_max: float):
        if L < 1:
            raise HamiltonianError(f"L must be >= 1, got {L}")
        for name, value in (("lam", lam), ("lam_max", lam_max)):
            if not (math.isfinite(value) and value > 0):
                raise HamiltonianError(f"{name} must be finite and > 0, got {value!r}")
        if lam_max > lam * (1 + _AGG_RTOL):
            raise HamiltonianError(f"lam_max={lam_max} exceeds lam={lam}")
        if lam > lam_max * L * (1 + _AGG_RTOL):
            raise HamiltonianError(f"lam={lam} exceeds lam_max*L={lam_max * L}")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam_max", lam_max)

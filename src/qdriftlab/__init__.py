"""qdriftlab: randomized product-formula compiler, rigorous gate-cost bounds,
dense channel verification, and phase-estimation resource planning for
Pauli-sum Hamiltonians."""

import importlib

from .trotter import (
    CostQuery,
    CostReport,
    Method,
    best_method,
    crossover_time,
    gate_count,
    gate_count_approx,
    gate_count_exact,
    segment_error_bound,
    solve_r,
    suzuki_error,
    total_error_bound,
    trotter_error_det,
    trotter_error_random,
)
from .weights import HamiltonianError, HamiltonianParseError, WeightProfile

# The numpy-backed names, imported from their modules on first use (PEP 562),
# so that ``import qdriftlab`` loads no numpy.
_LAZY = {
    "AliasSampler": "compiler",
    "Circuit": "compiler",
    "CircuitMeta": "compiler",
    "compile_circuit": "compiler",
    "elementary_gate_estimate": "compiler",
    "rng_from_seed": "compiler",
    "Hamiltonian": "hamiltonian",
    "parse_hamiltonian": "hamiltonian",
}

__version__ = "0.1.0"

__all__ = [
    "AliasSampler",
    "Circuit",
    "CircuitMeta",
    "CostQuery",
    "CostReport",
    "Hamiltonian",
    "HamiltonianError",
    "HamiltonianParseError",
    "Method",
    "WeightProfile",
    "best_method",
    "compile_circuit",
    "crossover_time",
    "elementary_gate_estimate",
    "gate_count",
    "gate_count_approx",
    "gate_count_exact",
    "parse_hamiltonian",
    "rng_from_seed",
    "segment_error_bound",
    "solve_r",
    "suzuki_error",
    "total_error_bound",
    "trotter_error_det",
    "trotter_error_random",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

"""qdriftlab: randomized product-formula compiler, rigorous gate-cost bounds,
dense channel verification, and phase-estimation resource planning for
Pauli-sum Hamiltonians."""

from .compiler import (
    AliasSampler,
    Circuit,
    CircuitMeta,
    compile_circuit,
    elementary_gate_estimate,
    rng_from_seed,
)
from .hamiltonian import (
    Hamiltonian,
    HamiltonianError,
    HamiltonianParseError,
    WeightProfile,
    parse_hamiltonian,
)
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

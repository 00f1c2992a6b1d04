"""The package's public names, listed once so that adding or removing one is a visible change."""

import pytest

import qdriftlab
from qdriftlab import channels, compiler, hamiltonian, phase_estimation, trotter

PUBLIC_NAMES = [
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
    "closed_form_suzuki_count",
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
    "suzuki_prefactor",
    "total_error_bound",
    "trotter_error_det",
    "trotter_error_random",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 27
    assert sorted(qdriftlab.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(qdriftlab, name) is not None, name


@pytest.mark.parametrize(
    "owner, name",
    [
        (compiler, "GateOp"),
        (compiler, "sample_term"),
        (compiler.Circuit, "gates"),
        (trotter, "qdrift_gates"),
        (trotter, "cost_csv_row"),
        (hamiltonian, "ControlledTerm"),
        (hamiltonian, "ControlledExtension"),
        (hamiltonian.Hamiltonian, "controlled_extension"),
        # A Hamiltonian is its columns: words, coefficients and weights.
        (hamiltonian, "Term"),
        (hamiltonian, "PauliString"),
        (hamiltonian.Hamiltonian, "terms"),
        (hamiltonian.Hamiltonian, "from_terms"),
        (hamiltonian.Hamiltonian, "__iter__"),
        # The dense superoperator path lives in tests/oracles.py.
        (channels, "qdrift_channel"),
        (channels, "segment_channel"),
        (channels, "unitary_channel"),
        (channels, "identity_channel"),
        (channels, "choi_state"),
        (channels, "choi_distance"),
        (channels, "is_trace_preserving"),
        (channels, "choi_min_eigenvalue"),
        (channels, "empirical_channel"),
        (channels, "circuit_unitary"),
        # verify calls the public checks; the private reuse path is gone.
        (channels, "_Step"),
        (channels, "_bound_rows"),
        (channels, "_composition_trials"),
        (channels, "_trace_preservation_error"),
        (channels, "_choi_min_eigenvalue"),
        (channels._KrausData, "step"),
        (channels._KrausData, "segment_targets"),
        # compile_circuit(..., controlled=True) is the one controlled compile.
        (compiler, "compile_controlled"),
        # optimize_pf solves the failure-share split in closed form; the
        # golden-section search is the oracle in tests/oracles.py.
        (phase_estimation, "_golden_section"),
    ],
)
def test_removed_names_stay_removed(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(qdriftlab, name)

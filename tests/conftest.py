import numpy as np
import pytest

# random_hamiltonian is the library's generator, shared by the test modules.
from qdriftlab.hamiltonian import Hamiltonian, random_hamiltonian  # noqa: F401

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_word_matrix(word: str) -> np.ndarray:
    out = PAULI[word[0]].copy()
    for c in word[1:]:
        out = np.kron(out, PAULI[c])
    return out


@pytest.fixture
def two_term_1q() -> Hamiltonian:
    return Hamiltonian([(0.5, "Z"), (0.5, "X")])


@pytest.fixture
def single_term_1q() -> Hamiltonian:
    return Hamiltonian([(0.7, "Z")])


@pytest.fixture
def three_term_2q() -> Hamiltonian:
    return Hamiltonian([(0.6, "ZZ"), (0.4, "XI"), (0.25, "IY")])

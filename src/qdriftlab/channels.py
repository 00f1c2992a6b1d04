"""Dense desk-scale channel numerics in the column-stacking convention.

vec stacks columns, so the map rho -> K rho K^dag has superoperator matrix
kron(conj(K), K) acting on vec(rho), and the normalized Choi state of a
superoperator S is reshuffle(S) / dim with

    reshuffle(S) = S.reshape(d, d, d, d).swapaxes(0, 3).reshape(d*d, d*d).

One convention is used everywhere; mixing two silently is the classic
defect.  Channel distances here are Choi-state trace distances, a standard
lower bound on the diamond distance, which keeps the direction of every
certified inequality sound (lower bound <= diamond distance <= analytic
bound).

Dimension caps: 6 qubits for single channels (4096^2 superoperators),
4 qubits for N-fold channel powers and empirical averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .compiler import Circuit, compile_circuit, rng_from_seed, segment_error_bound, total_error_bound
from .hamiltonian import Hamiltonian, PauliString

MAX_CHANNEL_QUBITS = 6
MAX_POWER_QUBITS = 4

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
TRACE_PRESERVING_TOL = 1e-10
CP_EIGENVALUE_TOL = -1e-10

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_qubits(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"{n} qubits exceeds the {cap}-qubit dense cap")


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of sign * P(axes) via Kronecker products."""
    _check_qubits(p.n_qubits, MAX_CHANNEL_QUBITS)
    out = PAULI_MATRICES[p.axes[0]].copy()
    for c in p.axes[1:]:
        out = np.kron(out, PAULI_MATRICES[c])
    return p.sign * out


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense sum_j h_j * sign_j * P_j."""
    _check_qubits(h.n_qubits, MAX_CHANNEL_QUBITS)
    dim = 2**h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        out += term.weight * pauli_to_matrix(term.op)
    return out


def unitary_exp(h_matrix: np.ndarray, theta: float) -> np.ndarray:
    """exp(i theta H) for Hermitian H via eigendecomposition.

    Hermiticity of the input and unitarity of the output are both checked
    to 1e-10.
    """
    h_matrix = np.asarray(h_matrix, dtype=complex)
    if np.max(np.abs(h_matrix - h_matrix.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian to 1e-10")
    w, v = np.linalg.eigh(h_matrix)
    u = (v * np.exp(1j * theta * w)) @ v.conj().T
    dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if dev > UNITARITY_TOL:
        raise ValueError(f"exponential lost unitarity (deviation {dev:.2e})")
    return u


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(matrix).T.reshape(-1)


def unvec(vector: np.ndarray) -> np.ndarray:
    v = np.asarray(vector).reshape(-1)
    d = int(round(math.sqrt(v.size)))
    return v.reshape(d, d).T


def unitary_channel(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    return np.kron(u.conj(), u)


def identity_channel(dim: int) -> np.ndarray:
    return np.eye(dim * dim, dtype=complex)


def apply_channel(superop: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return unvec(superop @ vec(rho))


def qdrift_channel(h: Hamiltonian, tau: float) -> np.ndarray:
    """Single-step mixing channel sum_j (h_j/lam) e^{i tau H_j} rho e^{-i tau H_j}."""
    _check_qubits(h.n_qubits, MAX_CHANNEL_QUBITS)
    dim = 2**h.n_qubits
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for term in h.terms:
        u = unitary_exp(pauli_to_matrix(term.op), tau)
        out += (term.weight / h.lam) * unitary_channel(u)
    return out


def segment_channel(h: Hamiltonian, t: float, n: int) -> np.ndarray:
    """Target channel of one segment, rho -> e^{i t H / N} rho e^{-i t H / N}."""
    _check_qubits(h.n_qubits, MAX_CHANNEL_QUBITS)
    return unitary_channel(unitary_exp(hamiltonian_matrix(h), t / n))


def choi_state(superop: np.ndarray) -> np.ndarray:
    """Normalized (trace 1) Choi density matrix of a superoperator."""
    s = np.asarray(superop)
    d = int(round(math.sqrt(s.shape[0])))
    return s.reshape(d, d, d, d).swapaxes(0, 3).reshape(d * d, d * d) / d


def trace_norm(matrix: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(np.asarray(matrix), compute_uv=False)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * trace_norm(np.asarray(a) - np.asarray(b))


def choi_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance between the channels' Choi states.

    A lower bound on the diamond distance (the maximally entangled probe is
    one admissible input of the defining supremum).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"superoperator shape mismatch: {a.shape} vs {b.shape}")
    return trace_distance(choi_state(a), choi_state(b))


def is_trace_preserving(superop: np.ndarray, tol: float = TRACE_PRESERVING_TOL) -> bool:
    s = np.asarray(superop)
    d = int(round(math.sqrt(s.shape[0])))
    id_vec = vec(np.eye(d, dtype=complex))
    return bool(np.max(np.abs(s.conj().T @ id_vec - id_vec)) <= tol)


def choi_min_eigenvalue(superop: np.ndarray) -> float:
    """Smallest Choi eigenvalue; >= -1e-10 certifies complete positivity."""
    j = choi_state(superop)
    return float(np.min(np.linalg.eigvalsh(0.5 * (j + j.conj().T))))


@dataclass(frozen=True)
class BoundRow:
    """One certification row: measured lower bound vs the analytic bound."""

    N: int
    d_lower: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.d_lower <= self.bound

    @property
    def ratio(self) -> float:
        return self.d_lower / self.bound if self.bound > 0 else math.nan


def _bound_rows(
    h: Hamiltonian, t: float, n_list: Sequence[int], tau_scale: float = 1.0
) -> Iterator[tuple[BoundRow, np.ndarray]]:
    """Yield each row of ``verify_bound`` with the mixing channel it measured.

    The target channel is dropped before each yield and the mixing channel
    after it, so a caller that drops its reference too holds at most one
    row's two superoperators at a time.
    """
    _check_qubits(h.n_qubits, MAX_CHANNEL_QUBITS)
    for n in n_list:
        if n < 1:
            raise ValueError(f"N must be >= 1, got {n}")
        target = segment_channel(h, t, n)
        mix = qdrift_channel(h, tau_scale * h.lam * t / n)
        row = BoundRow(int(n), choi_distance(target, mix), segment_error_bound(h.lam, t, n))
        del target
        yield row, mix
        del mix


def verify_bound(
    h: Hamiltonian, t: float, n_list: Sequence[int], tau_scale: float = 1.0
) -> list[BoundRow]:
    """Certify d(U_N, E) <= (2 lam^2 t^2 / N^2) e^{2 lam t / N} row by row.

    d_lower is the Choi trace distance between the one-segment target
    channel and the mixing channel at tau = tau_scale * lam * t / N.
    tau_scale != 1 is the deliberate mismatch used as a negative control;
    the analytic bound always refers to the matched protocol.  Violating
    rows are surfaced in the returned table, not raised.
    """
    rows = []
    for row, mix in _bound_rows(h, t, n_list, tau_scale):
        del mix  # before the next row's channels are built
        rows.append(row)
    return rows


def decay_slope(rows: Sequence[BoundRow]) -> float:
    """Least-squares slope of log d_lower vs log N; nan when distances vanish."""
    pts = [(r.N, r.d_lower) for r in rows if r.d_lower > 0]
    if len(pts) < 2:
        return math.nan
    logs_n = np.log([p[0] for p in pts])
    logs_d = np.log([p[1] for p in pts])
    return float(np.polyfit(logs_n, logs_d, 1)[0])


@dataclass(frozen=True)
class CompositionTrial:
    """One random-state probe of the composed-channel bound."""

    index: int
    d_tr: float
    budget: float
    expval_err: float
    expval_cap: float

    @property
    def state_ok(self) -> bool:
        return self.d_tr <= self.budget + 1e-12

    @property
    def expval_ok(self) -> bool:
        return self.expval_err <= self.expval_cap + 1e-12

    @property
    def ok(self) -> bool:
        return self.state_ok and self.expval_ok


def _random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def composition_check(
    h: Hamiltonian, t: float, n: int, trials: int = 20, seed: int = 1234
) -> list[CompositionTrial]:
    """Probe the N-fold composed channel against its subadditive budget.

    For random pure rho, checks 0.5 ||(E^N - U)(rho)||_1 <= the N-step
    bound (2 lam^2 t^2 / N) e^{2 lam t / N}; for random rank-1 projectors M,
    checks |Tr[M (E^N - U)(rho)]| <= 2 ||M|| d_tr with the measured d_tr.
    """
    _check_qubits(h.n_qubits, MAX_POWER_QUBITS)
    return _composition_trials(h, t, n, qdrift_channel(h, h.lam * t / n), trials, seed)


def _composition_trials(
    h: Hamiltonian, t: float, n: int, step: np.ndarray, trials: int, seed: int
) -> list[CompositionTrial]:
    """``composition_check`` given its one-step channel, qdrift_channel(h, lam t / n)."""
    _check_qubits(h.n_qubits, MAX_POWER_QUBITS)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dim = 2**h.n_qubits
    target = unitary_channel(unitary_exp(hamiltonian_matrix(h), t))
    composed = np.linalg.matrix_power(step, n)
    delta = composed - target
    budget = total_error_bound(h.lam, t, n)
    rng = rng_from_seed(seed)
    out = []
    for i in range(trials):
        psi = _random_pure_state(rng, dim)
        rho = np.outer(psi, psi.conj())
        diff = apply_channel(delta, rho)
        d_tr = 0.5 * trace_norm(diff)
        phi = _random_pure_state(rng, dim)
        projector = np.outer(phi, phi.conj())
        expval_err = abs(np.trace(projector @ diff))
        out.append(CompositionTrial(i, d_tr, budget, float(expval_err), 2.0 * d_tr))
    return out


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense product unitary of a compiled gate list (first gate acts first)."""
    h = circuit.source
    _check_qubits(h.n_qubits, MAX_POWER_QUBITS)
    gate_cache = [unitary_exp(pauli_to_matrix(term.op), circuit.tau) for term in h.terms]
    dim = 2**h.n_qubits
    u = np.eye(dim, dtype=complex)
    for j in circuit.term_indices:
        u = gate_cache[j] @ u
    return u


def empirical_channel(h: Hamiltonian, t: float, eps: float, seeds: Sequence[int]) -> np.ndarray:
    """Seed-averaged channel of compiled circuits; converges to E^N."""
    if len(seeds) == 0:
        raise ValueError("seed list must be non-empty")
    _check_qubits(h.n_qubits, MAX_POWER_QUBITS)
    dim = 2**h.n_qubits
    acc = np.zeros((dim * dim, dim * dim), dtype=complex)
    for seed in seeds:
        acc += unitary_channel(circuit_unitary(compile_circuit(h, t, eps, seed)))
    return acc / len(seeds)

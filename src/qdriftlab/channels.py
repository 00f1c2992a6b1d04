"""Desk-scale channel certification from Kraus data.

Both channels that ``verify`` compares are mixed unitary.  The one-segment
target is rho -> V rho V^dag with V = e^{i t H / N}; the qDRIFT mixing
channel is sum_k p_k U_k rho U_k^dag with p_k = h_k / lam and the closed-form
gate U_k = e^{i tau s_k P_k} = cos(tau) I + i sin(tau) s_k P_k (P_k^2 = I).
Every quantity is therefore measured from d x d matrices and one
(L+1)-column factor; no d^2 x d^2 superoperator is built.

Distance.  With w = vec(U) / sqrt(d), the normalized Choi state of a
mixed-unitary channel is sum_k p_k w_k w_k^dag, so the Choi difference of
target and mixture is W C W^dag with W = [w_V, w_1, ..., w_L] (d^2 x (L+1))
and C = diag(1, -p_1, ..., -p_L).  Write W = Q R with Q's columns
orthonormal; then ||Q M Q^dag||_1 = ||M||_1, so the Choi trace distance is
0.5 ||R C R^dag||_1, one eigvalsh of a matrix of side at most L+1.  The
Choi state is one admissible input of the diamond norm's supremum, so this
is a lower bound on the diamond distance and keeps the direction of every
certified inequality sound (lower bound <= diamond distance <= analytic
bound).  The vec convention does not matter: any fixed ordering of the
entries changes W by a permutation, which leaves the trace norm unchanged.

Validity.  A mixed-unitary map is trace preserving iff
sum_k p_k U_k^dag U_k = I, and its Choi state's nonzero spectrum is that of
R diag(p) R^dag for the R factor of its Kraus columns.

Composition.  ``composition_check`` applies the N-fold step to the states
in real Pauli coordinates r[x d + z] = Tr(P(x, z) rho), with
P(x, z) = i^{|x & z|} X^x Z^z and bit masks whose most significant bit is
a word's first letter.  Each Pauli conjugation keeps P(x, z) up to sign,
and the commutator i c s [A, rho] sends it to one signed Pauli per
anticommuting term, so the step is S = I + D with D a real d^2 x d^2
matrix of at most L + 1 entries per row.  While (1 + b)^N <= 2^10, b the
largest row sum of |D|, S^N is summed as the binomial series
sum_k C(N, k) D^k up to a tail below 2^-60 of the states' size: about 26
applications of D for a certify input in place of N = 100 steps.  Past
that growth S itself is applied N times.  When L + 1 <= d a table is
applied as one gather of its entries and one small product; larger L
scatters them into the whole matrix and an application is one product
with it.

Each check reads a ``_KrausData``: the signed Pauli stack, the mixing
probabilities and, from the first target formed, one eigendecomposition of
H, so the validity check alone takes none.  Inside a ``shared_kraus_data``
block, as ``verify`` runs its checks, each Hamiltonian gets one
``_KrausData``: its stack is built and H diagonalized once for all checks.

Dimension caps: 6 qubits for one segment, 4 qubits for N-fold compositions.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Sequence

import numpy as np

from .compiler import rng_from_seed
from .hamiltonian import PAULI_AXES, Hamiltonian
from .trotter import segment_error_bound, total_error_bound
from .weights import Record

MAX_CHANNEL_QUBITS = 6
MAX_POWER_QUBITS = 4

UNITARITY_TOL = 1e-10

# I, X, Y, Z in PAULI_AXES order.
_PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def _check_qubits(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"{n} qubits exceeds the {cap}-qubit dense cap")


# The index in PAULI_AXES of each ASCII letter a word may hold.
_LETTER_CODES = np.zeros(256, dtype=np.intp)
_LETTER_CODES[np.frombuffer(PAULI_AXES.encode("ascii"), np.uint8)] = np.arange(4)


def _letter_codes(h: Hamiltonian) -> np.ndarray:
    """The (L, n) indices of each word's letters in PAULI_AXES."""
    return _LETTER_CODES[h._letter_bytes()]


def _signed_paulis(h: Hamiltonian) -> np.ndarray:
    """The L x d x d stack of s_k P_k, one exact Kronecker step per qubit for all k at once."""
    codes = _letter_codes(h)
    out = _PAULIS[codes[:, 0]]
    for q in range(1, h.n_qubits):
        m = _PAULIS[codes[:, q]][:, None, :, None, :]
        out = (out[:, :, None, :, None] * m).reshape(h.L, 2 ** (q + 1), -1)
    negative = h.coefficients < 0
    out[negative] = -out[negative]
    return out


def _rotations(signed_paulis: np.ndarray, tau: float) -> np.ndarray:
    """e^{i tau s_k P_k} = cos(tau) I + i sin(tau) s_k P_k for each term."""
    out = (1j * math.sin(tau)) * signed_paulis
    diag = np.arange(signed_paulis.shape[-1])
    out[:, diag, diag] += math.cos(tau)
    return out


class _KrausData:
    """The d x d data of one Hamiltonian that the row, validity and composition checks read.

    Holds the signed Pauli matrices, the mixing probabilities h_k / lam and,
    from the first ``evolution`` on, one eigendecomposition of the dense
    H = sum_k h_k s_k P_k, from which every segment target e^{i t H / N} and
    the composition target e^{i t H} are formed.
    """

    def __init__(self, h: Hamiltonian):
        _check_qubits(h.n_qubits, MAX_CHANNEL_QUBITS)
        self.h = h
        self.dim = 2**h.n_qubits
        self.paulis = _signed_paulis(h)
        self.probs = h.weights / h.lam
        self._eigh: tuple[np.ndarray, np.ndarray] | None = None

    def evolution(self, theta: float) -> np.ndarray:
        """e^{i theta H}."""
        if self._eigh is None:
            eigvals, v = np.linalg.eigh(np.tensordot(self.h.weights, self.paulis, axes=1))
            dev = float(np.max(np.abs(v @ v.conj().T - np.eye(self.dim))))
            if dev > UNITARITY_TOL:
                raise ValueError(f"eigenvectors of H lost unitarity (deviation {dev:.2e})")
            self._eigh = eigvals, v
        eigvals, v = self._eigh
        return (v * np.exp(1j * theta * eigvals)) @ v.conj().T

    def gates(self, tau: float) -> np.ndarray:
        """The Kraus unitaries e^{i tau s_k P_k} of the mixing channel at angle tau."""
        return _rotations(self.paulis, tau)


# id(h) -> the Kraus data of h, for the Hamiltonians checked in the current
# ``shared_kraus_data`` block; None outside any block.
_SHARED: ContextVar[dict[int, _KrausData] | None] = ContextVar("shared_kraus_data", default=None)


@contextmanager
def shared_kraus_data():
    """Within the block, every check of one Hamiltonian object reads one ``_KrausData``."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _kraus_data(h: Hamiltonian) -> _KrausData:
    shared = _SHARED.get()
    if shared is None:
        return _KrausData(h)
    # Each entry holds its h, so no id is reused while the block runs.
    if id(h) not in shared:
        shared[id(h)] = _KrausData(h)
    return shared[id(h)]


def _kraus_r(unitaries: np.ndarray) -> np.ndarray:
    """R of the QR factorization of the columns vec(U_k) / sqrt(d)."""
    count, dim, _ = unitaries.shape
    w = unitaries.reshape(count, dim * dim).T / math.sqrt(dim)
    return np.linalg.qr(w, mode="r")


def _row_distance(target: np.ndarray, gates: np.ndarray, probs: np.ndarray) -> float:
    """Choi trace distance between rho -> V rho V^dag and the mixture: 0.5 ||R C R^dag||_1."""
    r = _kraus_r(np.concatenate((target[None], gates)))
    c = np.concatenate(([1.0], -probs))
    m = (r * c) @ r.conj().T
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def validity_check(h: Hamiltonian, t: float, n: int) -> tuple[float, float]:
    """(tp_error, cp_min) of the mixing channel at tau = lam t / N.

    tp_error is max |sum_k p_k U_k^dag U_k - I|, 0 for an exactly trace
    preserving channel; cp_min is the smallest eigenvalue of
    R diag(p) R^dag, the Choi state's nonzero spectrum, and >= -tol
    certifies complete positivity.  No eigendecomposition of H is needed.
    """
    data = _kraus_data(h)
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    gates = _rotations(data.paulis, h.lam * t / n)
    probs = data.probs
    s = np.tensordot(probs, gates.conj().swapaxes(1, 2) @ gates, axes=1)
    tp_error = float(np.max(np.abs(s - np.eye(data.dim))))
    r = _kraus_r(gates)
    cp_min = float(np.min(np.linalg.eigvalsh((r * probs) @ r.conj().T)))
    return tp_error, cp_min


class BoundRow(Record):
    """One certification row: measured lower bound vs the analytic bound."""

    __slots__ = ("N", "d_lower", "bound")

    def __init__(self, N: int, d_lower: float, bound: float):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "d_lower", d_lower)
        object.__setattr__(self, "bound", bound)

    @property
    def ok(self) -> bool:
        return self.d_lower <= self.bound

    @property
    def ratio(self) -> float:
        return self.d_lower / self.bound if self.bound > 0 else math.nan


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
    for n in n_list:
        if n < 1:
            raise ValueError(f"N must be >= 1, got {n}")
    data = _kraus_data(h)
    lam = h.lam
    rows = []
    for n in n_list:
        gates = data.gates(tau_scale * lam * t / n)
        d_lower = _row_distance(data.evolution(t / n), gates, data.probs)
        rows.append(BoundRow(int(n), d_lower, segment_error_bound(lam, t, n)))
    return rows


def decay_slope(rows: Sequence[BoundRow]) -> float:
    """Least-squares slope of log d_lower vs log N; nan when fewer than two
    distinct N have a nonzero distance."""
    pts = [(math.log(r.N), math.log(r.d_lower)) for r in rows if r.d_lower > 0]
    if len({x for x, _ in pts}) < 2:
        return math.nan
    mean_x = sum(x for x, _ in pts) / len(pts)
    mean_y = sum(y for _, y in pts) / len(pts)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in pts)
    sxx = sum((x - mean_x) ** 2 for x, _ in pts)
    return sxy / sxx


class CompositionTrial(Record):
    """One random-state probe of the composed-channel bound."""

    __slots__ = ("index", "d_tr", "budget", "expval_err", "expval_cap")

    def __init__(self, index: int, d_tr: float, budget: float, expval_err: float, expval_cap: float):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "d_tr", d_tr)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "expval_err", expval_err)
        object.__setattr__(self, "expval_cap", expval_cap)

    @property
    def state_ok(self) -> bool:
        return self.d_tr <= self.budget + 1e-12

    @property
    def expval_ok(self) -> bool:
        return self.expval_err <= self.expval_cap + 1e-12

    @property
    def ok(self) -> bool:
        return self.state_ok and self.expval_ok


def _probe_states(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` random pure states from one draw: each state's real then imaginary parts."""
    draws = rng.standard_normal((count, 2, dim))
    states = draws[:, 0] + 1j * draws[:, 1]
    # One norm per state, as for a lone vector: a norm along an axis sums in
    # another order and moves the last bits.
    return states / np.array([np.linalg.norm(state) for state in states])[:, None]


def _letter_masks(h: Hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Each word's X-or-Y and Y-or-Z letters as bit masks, the first letter most significant."""
    codes = _letter_codes(h)
    bits = 1 << np.arange(h.n_qubits - 1, -1, -1)
    return ((codes == 1) | (codes == 2)) @ bits, (codes >= 2) @ bits


# Set bits of every mask of at most MAX_POWER_QUBITS bits, as int64 so that
# 1 - 2 * count cannot wrap.
_BIT_COUNTS = np.array([bin(m).count("1") for m in range(1 << MAX_POWER_QUBITS)], dtype=np.int64)


def _popcount(a: np.ndarray) -> np.ndarray:
    return _BIT_COUNTS[a]


def _pauli_products(n: int, xk: np.ndarray, zk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(anti, e, partner), each (d^2, L): P(q) against P(x_k, z_k) for every q = x d + z.

    anti is 1 where the two anticommute, and P(q) P(x_k, z_k) = i^e P(partner)
    with partner = q ^ (x_k d + z_k) and e in 0..3.
    """
    dim = 1 << n
    q = np.arange(dim * dim)
    qx, qz = (q >> n)[:, None], (q & (dim - 1))[:, None]
    anti = (_popcount(qx & zk) + _popcount(qz & xk)) & 1
    x3, z3 = qx ^ xk, qz ^ zk
    # X^x Z^z X^x' Z^z' = (-1)^{z . x'} X^{x ^ x'} Z^{z ^ z'}; the i^{|x & z|} factors close it.
    e = (_popcount(qx & qz) + _popcount(xk & zk) + 2 * _popcount(qz & xk) - _popcount(x3 & z3)) & 3
    return anti, e, (x3 << n) | z3


def _pauli_rows(h: Hamiltonian, c: float, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (d^2, L + 1) gather table of D = S - I, for S one step in Pauli coordinates, its
    (d^2, 1, L + 1) weights, and S's own (d^2,) diagonal.

    Row q holds q itself, with weight -2 s^2 pi_q, where pi_q = sum_k p_k
    over the terms P_k that anticommute with P(q); then q ^ (x_k d + z_k)
    for each term, with weight 2 c s s_k p_k i^{e+1} when P_k anticommutes
    with P(q) and 0 otherwise, where P(q) P_k = i^e P(q ^ (x_k d + z_k)).
    S's diagonal is c^2 + s^2 sum_k p_k chi_k(q), with chi_k(q) = -1 on
    anticommuting pairs and 1 otherwise: D's diagonal plus 1, summed as a
    step has always summed it.
    """
    dim = 1 << h.n_qubits
    anti, e, partner = _pauli_products(h.n_qubits, *_letter_masks(h))
    probs = h.weights / h.lam
    table = np.concatenate((np.arange(dim * dim)[:, None], partner), axis=1)
    weights = np.empty((dim * dim, 1, h.L + 1))
    # c^2 + s^2 (1 - 2 pi_q) - 1 = -2 s^2 pi_q, without the cancellation.
    weights[:, 0, 0] = (-2 * s * s) * (anti @ probs)
    # e is odd on anticommuting pairs, where i^{e+1} = 1 - ((e + 1) & 2).
    weights[:, 0, 1:] = (2 * c * s) * (anti * (1 - ((e + 1) & 2))) * (h.coefficients / h.lam)
    return table, weights, c * c + (s * s) * ((1 - 2 * anti) @ probs)


def _dense_step(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The table and weights of ``_pauli_rows`` scattered into one real (d^2, d^2) matrix.

    Each row's columns are distinct: distinct non-identity words have
    distinct partners, none of them the row itself.
    """
    step = np.zeros((table.shape[0], table.shape[0]))
    step[np.arange(table.shape[0])[:, None], table] = weights[:, 0]
    return step


def _apply_rows(op: np.ndarray, table: np.ndarray, r: np.ndarray, gathered: np.ndarray | None) -> np.ndarray:
    """op r: op a (d^2, d^2) matrix when ``gathered`` is None, else (d^2, 1, L + 1) row
    weights whose columns are gathered through ``table`` into the buffer ``gathered``."""
    if gathered is None:
        return op @ r
    # mode="wrap" lets np.take write the buffer unbuffered; every index is in range.
    np.take(r, table, axis=0, out=gathered, mode="wrap")
    return np.matmul(op, gathered).reshape(r.shape)


# The binomial series runs while the sizes of its terms sum to at most this
# many times the states' size, and drops a tail below this fraction of it.
_SERIES_GROWTH = 2.0**10
_SERIES_TAIL = 2.0**-60


def _pauli_steps(h: Hamiltonian, r: np.ndarray, n: int, c: float, s: float) -> np.ndarray:
    """S^n r for the (d^2, trials) Pauli coordinates r, S the step at c = cos tau, s = sin tau.

    With S = I + D, S^n r = sum_k C(n, k) D^k r, each term the one before
    after one application of D's table, times (n - k) / (k + 1).  With b
    the largest row sum of |D|, ||D^k r||_inf <= b^k ||r||_inf, so the
    terms' sizes sum to at most (1 + b)^n ||r||_inf.  The series runs only
    where that growth, and so its roundoff, is at most 2^10.  After term k
    the size bound C(n, k) b^k changes by the ratio (n - k) b / (k + 1) per
    term; once the ratio is below 1, the dropped tail is at most
    C(n, k) b^k ratio / (1 - ratio) ||r||_inf.  The sum stops at the first
    k where that is at most 2^-60 ||r||_inf, far below one rounding of the
    states, or at k = n.  Past the growth rule S's own table is applied n
    times, as every step was before the series.  When L + 1 <= d a table is
    applied as one gather and one batched product; otherwise it is
    scattered into the whole matrix once and applied as one product.
    """
    dim = 1 << h.n_qubits
    table, weights, step_diagonal = _pauli_rows(h, c, s)
    b = float(np.abs(weights).sum(axis=-1).max())
    series = n * math.log1p(b) <= math.log(_SERIES_GROWTH)
    if not series:
        weights[:, 0, 0] = step_diagonal
    if h.L + 1 <= dim:
        op, gathered = weights, np.empty((*table.shape, r.shape[1]))
    else:
        op, gathered = _dense_step(table, weights), None
    if not series:
        for _ in range(n):
            r = _apply_rows(op, table, r, gathered)
        return r
    total, term, size = r.copy(), r, 1.0
    for k in range(n):
        ratio = (n - k) / (k + 1) * b
        if ratio < 1 and size * ratio / (1 - ratio) <= _SERIES_TAIL:
            break
        term = _apply_rows(op, table, term, gathered)
        term *= (n - k) / (k + 1)
        total += term
        size *= ratio
    return total


def composition_check(
    h: Hamiltonian, t: float, n: int, trials: int = 20, seed: int = 1234
) -> list[CompositionTrial]:
    """Probe the N-fold composed channel against its subadditive budget.

    For random pure rho, checks 0.5 ||(E^N - U)(rho)||_1 <= the N-step
    bound (2 lam^2 t^2 / N) e^{2 lam t / N}; for random rank-1 projectors M,
    checks |Tr[M (E^N - U)(rho)]| <= 2 ||M|| d_tr with the measured d_tr.

    The n-fold step at tau = lam t / n acts on all probe states at once.
    With U_k = c I + i s S_k (c = cos tau, s = sin tau, S_k = s_k P_k the
    signed Pauli) and A = sum_k p_k S_k,

        sum_k p_k U_k rho U_k^dag = c^2 rho + i c s [A, rho] + s^2 sum_k p_k P_k rho P_k.

    Let x_k mask word k's X and Y letters and z_k its Y and Z letters, the
    first letter as the most significant bit.  The states are carried as
    real Pauli coordinates r[x d + z] = Tr(P(x, z) rho), with
    P(x, z) = i^{|x & z|} X^x Z^z.  P_k P(q) P_k = chi_k(q) P(q) with
    chi_k = -1 when the two anticommute, and then [P_k, P(q)] is a multiple
    of P(q ^ (x_k d + z_k)).  So a step is S = I + D, D one real
    d^2 x d^2 matrix with at most L + 1 entries per row, built once per
    check as a (d^2, L + 1) gather table and its weights.  S^n is the
    binomial series sum_k C(n, k) D^k, cut once its tail is below 2^-60 of
    the states' size, wherever its growth (1 + b)^n, b the largest row sum
    of |D|, is at most 2^10; past that S is applied n times
    (``_pauli_steps``).  The states enter Pauli coordinates through the XOR
    gather sigma[x, w] = rho[w, w ^ x] and one Walsh-Hadamard product, and
    leave the same way, once each.  The states come from the generator in
    the order psi_0, phi_0, psi_1, ...
    """
    _check_qubits(h.n_qubits, MAX_POWER_QUBITS)
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    data = _kraus_data(h)
    states = _probe_states(rng_from_seed(seed), data.dim, 2 * trials)
    psi, phi = states[0::2], states[1::2]
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    u = data.evolution(t)
    exact = u @ rho @ u.conj().T

    # Into real Pauli coordinates r[x, z] = i^{|x & z|} sum_w (-1)^{z . w} rho[w, w ^ x]
    # through the flat positions of sigma[x, w, t] = rho[t, w, w ^ x], and back
    # through those of rho[t, w, v] = sigma[w ^ v, w, t] in the (d, d, trials) sigma.
    dim = data.dim
    w = np.arange(dim)
    xor = w[:, None] ^ w
    into = (w * dim + xor)[:, :, None] + np.arange(trials) * dim * dim
    back = ((xor * dim + w[:, None]) * trials)[None] + np.arange(trials)[:, None, None]
    parity = _popcount(w[:, None] & w)
    hadamard = 1.0 - 2.0 * (parity & 1)  # (-1)^{z . w}
    phase = np.array([1, 1j, -1, -1j])[parity & 3]  # i^{|x & z|}
    r = (phase[:, :, None] * (hadamard @ np.take(rho, into))).real.reshape(dim * dim, trials)
    tau = h.lam * t / n
    r = _pauli_steps(h, r, n, math.cos(tau), math.sin(tau))
    rho = np.take(hadamard @ ((phase.conj() / dim)[:, :, None] * r.reshape(dim, dim, trials)), back)
    diff = rho - exact
    # diff is Hermitian: its singular values are its eigenvalues' magnitudes.
    d_tr = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)
    expval_err = np.abs(np.einsum("ta,tab,tb->t", phi.conj(), diff, phi))
    budget = total_error_bound(h.lam, t, n)
    return [
        CompositionTrial(i, float(d_tr[i]), budget, float(expval_err[i]), 2.0 * float(d_tr[i]))
        for i in range(trials)
    ]

"""The Kraus-data certification path against the dense superoperator oracle.

Error budget.  The fast and dense paths must agree to an absolute 1e-12 on
every row; on the golden corpus they differ by at most 6.3e-16.  A row
flips between certified and violated only if d_lower moves by
(1 - ratio) * bound.  On the benchmark's certify inputs (4 qubits, t = 1,
lam in [0.5, 2], N <= 1000) the smallest bound,
(2 lam^2 t^2 / N^2) e^{2 lam t / N} at lam = 0.5 and N = 1000, is about
5.0e-7, and the largest ratio over 300 such Hamiltonians was 0.437.  A flip
therefore needs an error of at least 0.56 * 5.0e-7 = 2.8e-7, more than five
orders of magnitude above 1e-12.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as dense
from qdriftlab import channels as ch
from qdriftlab.trotter import segment_error_bound
from qdriftlab.hamiltonian import Hamiltonian

TOL = 1e-12


@st.composite
def hamiltonians(draw, max_qubits: int = 4) -> Hamiltonian:
    n = draw(st.integers(1, max_qubits))
    words = draw(
        st.lists(
            st.text("IXYZ", min_size=n, max_size=n).filter(lambda w: w.strip("I")),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(words), max_size=len(words)))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(words), max_size=len(words)))
    return Hamiltonian([(s * w, word) for s, w, word in zip(signs, weights, words)])


@settings(max_examples=40, deadline=None)
@given(
    h=hamiltonians(),
    t=st.floats(0.05, 3.0),
    n_list=st.lists(st.integers(1, 2000), min_size=1, max_size=3),
    tau_scale=st.sampled_from([1.0, 2.0]),
)
def test_rows_equal_the_dense_path(h, t, n_list, tau_scale):
    fast = ch.verify_bound(h, t, n_list, tau_scale=tau_scale)
    slow = dense.dense_verify_bound(h, t, n_list, tau_scale=tau_scale)
    for got, want in zip(fast, slow):
        assert (got.N, got.bound) == (want.N, want.bound)
        assert abs(got.d_lower - want.d_lower) <= TOL
        if tau_scale == 1.0:
            assert got.d_lower <= segment_error_bound(h.lam, t, got.N)


@settings(max_examples=40, deadline=None)
@given(h=hamiltonians(), t=st.floats(0.05, 3.0), n=st.integers(1, 2000))
def test_validity_numbers_equal_the_dense_path(h, t, n):
    tp_error, cp_min = ch.validity_check(h, t, n)
    superop = dense.qdrift_channel(h, h.lam * t / n)
    assert tp_error <= TOL
    assert abs(tp_error - dense.trace_preservation_error(superop)) <= TOL
    # The dense spectrum adds d^2 - L zero eigenvalues, which the factor omits.
    assert cp_min >= -TOL
    assert abs(min(cp_min, 0.0) - min(dense.choi_min_eigenvalue(superop), 0.0)) <= TOL


@settings(max_examples=25, deadline=None)
@given(
    h=hamiltonians(max_qubits=3),
    t=st.floats(0.05, 2.0),
    n=st.integers(1, 120),
    seed=st.integers(0, 2**64 - 1),
)
def test_composition_trials_equal_the_dense_path(h, t, n, seed):
    fast = ch.composition_check(h, t, n, trials=4, seed=seed)
    slow = dense.dense_composition_check(h, t, n, trials=4, seed=seed)
    for got, want in zip(fast, slow):
        assert (got.index, got.budget) == (want.index, want.budget)
        assert abs(got.d_tr - want.d_tr) <= TOL
        assert abs(got.expval_err - want.expval_err) <= TOL
        assert got.state_ok == want.state_ok and got.expval_ok == want.expval_ok


def test_four_qubit_composition_equals_the_dense_path():
    h = Hamiltonian(
        [(0.8, "ZZII"), (-0.45, "IXXI"), (0.3, "IIYY"), (0.25, "XIIZ"), (-0.2, "YZXI")]
    )
    fast = ch.composition_check(h, 1.0, 100, trials=20, seed=42)
    slow = dense.dense_composition_check(h, 1.0, 100, trials=20, seed=42)
    assert max(abs(a.d_tr - b.d_tr) for a, b in zip(fast, slow)) <= TOL


DENSE4 = [
    (0.8, "ZZII"), (-0.45, "IXXI"), (0.3, "IIYY"), (0.25, "XIIZ"),
    (-0.2, "YZXI"), (0.15, "IIZX"), (0.1, "ZYIY"),
]


def _assert_composition_equals_dense(terms, t, n, trials, seed):
    h = Hamiltonian(terms)
    fast = ch.composition_check(h, t, n, trials=trials, seed=seed)
    slow = dense.dense_composition_check(h, t, n, trials=trials, seed=seed)
    assert len(fast) == len(slow) == trials
    for got, want in zip(fast, slow):
        assert (got.index, got.budget) == (want.index, want.budget)
        assert abs(got.d_tr - want.d_tr) <= TOL
        assert abs(got.expval_err - want.expval_err) <= TOL


@pytest.mark.parametrize(
    "terms",
    [
        # Three words with no X or Y letter: one flip mask, three sign patterns.
        [(0.7, "ZIII"), (0.5, "IIZZ"), (-0.3, "ZZZZ")],
        [(0.7, "ZIII"), (0.5, "IIZZ"), (-0.3, "ZZZZ"), (0.4, "XXII")],
        # XZII and YIII flip the first qubit alike and differ in their signs.
        [(0.6, "XZII"), (0.4, "YIII")],
        [(0.6, "XZII"), (-0.4, "YIII"), (0.3, "IZXI"), (-0.2, "IXZI")],
        # Y-heavy words, most coefficients negative.
        [(-0.5, "YYYY"), (-0.45, "YIYI"), (0.3, "IYYI"), (-0.25, "YXZY"), (-0.2, "ZYYX")],
    ],
    ids=["diagonal", "diagonal-plus-xx", "xz-with-y", "xz-with-y-mixed", "y-heavy"],
)
def test_four_qubit_shared_flip_masks_equal_the_dense_path(terms):
    _assert_composition_equals_dense(terms, 1.0, 100, trials=8, seed=17)


@pytest.mark.parametrize(
    "terms, n, trials",
    [
        ([(0.9, "XYZI")], 100, 6),
        ([(-0.9, "YYZX")], 37, 6),
        (DENSE4, 1, 6),
        (DENSE4, 100, 1),
        ([(-1.2, "IYII")], 1, 1),
    ],
    ids=["single-term", "single-negative-term", "n-1", "trials-1", "all-at-once"],
)
def test_four_qubit_edge_compositions_equal_the_dense_path(terms, n, trials):
    _assert_composition_equals_dense(terms, 0.8, n, trials, seed=3)


def test_all_255_four_qubit_words_equal_the_dense_path():
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=4)][1:]
    rng = np.random.default_rng(255)
    coeffs = rng.uniform(0.1, 1.0, len(words)) * rng.choice([-1.0, 1.0], len(words))
    coeffs *= 1.5 / np.abs(coeffs).sum()
    _assert_composition_equals_dense(list(zip(coeffs.tolist(), words)), 1.0, 100, 20, seed=255)


def test_every_two_qubit_word_fills_the_choi_dimension():
    # Words are distinct and not the identity, so L + 1 <= 4^n = d^2; with
    # all 15 two-qubit words W is square and R is 16 x 16.
    words = [a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"]
    h = Hamiltonian([((-1) ** k * (0.1 + 0.05 * k), w) for k, w in enumerate(words)])
    data = ch._KrausData(h)
    w = np.concatenate((data.evolution(0.1)[None], data.gates(0.3)))
    assert ch._kraus_r(w).shape == (16, 16)
    for got, want in zip(ch.verify_bound(h, 0.7, [3, 30]), dense.dense_verify_bound(h, 0.7, [3, 30])):
        assert abs(got.d_lower - want.d_lower) <= TOL


@pytest.mark.parametrize(
    "n_qubits, fn", [(7, "verify_bound"), (7, "validity_check"), (5, "composition_check")]
)
def test_dimension_caps(n_qubits, fn):
    h = Hamiltonian([(1.0, "Z" * n_qubits), (0.5, "X" * n_qubits)])
    with pytest.raises(ValueError, match="cap"):
        getattr(ch, fn)(h, 1.0, [10] if fn == "verify_bound" else 10)


@pytest.mark.parametrize("fn", ["verify_bound", "validity_check", "composition_check"])
def test_n_below_one_is_rejected(fn):
    h = Hamiltonian([(0.5, "Z"), (0.5, "X")])
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        getattr(ch, fn)(h, 1.0, [0] if fn == "verify_bound" else 0)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_signed_paulis_equal_the_oracle_matrices(n_qubits):
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=n_qubits)][1:]
    for signs in ([1] * len(words), [-1] * len(words), [(-1) ** k for k in range(len(words))]):
        h = Hamiltonian([(s * 0.5, w) for s, w in zip(signs, words)])
        stack = ch._signed_paulis(h)
        assert stack.shape == (len(words), 2**n_qubits, 2**n_qubits)
        for got, word, c in zip(stack, h.words, h.coefficients.tolist()):
            assert np.array_equal(got, dense.pauli_to_matrix(word, 1 if c > 0 else -1))

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
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _composition_form(h, *args, **kwargs):
    """composition_check's trials and the branch of its step: "sparse" rows or one "dense" matrix."""
    with mock.patch.object(ch, "_pauli_steps", wraps=ch._pauli_steps) as steps:
        with mock.patch.object(ch, "_dense_step", wraps=ch._dense_step) as dense_step:
            trials = ch.composition_check(h, *args, **kwargs)
    assert steps.call_count == 1 and dense_step.call_count <= 1
    return trials, "dense" if dense_step.call_count else "sparse"


@st.composite
def composition_inputs(draw, max_qubits: int = 3) -> Hamiltonian:
    """Inputs of at most ``max_qubits`` qubits on both sides of L + 1 <= d, the side drawn first.

    The sparse side has L <= 6; the dense side has L <= 6 at 1-2 qubits and
    L in [d, 4^n - 1] from 3 qubits on.
    """
    sparse = draw(st.booleans())
    n = draw(st.integers(1, max_qubits))
    dim = 2**n
    if sparse:
        size = draw(st.integers(1, min(dim - 1, 6)))
    else:
        size = draw(st.integers(dim, 4**n - 1 if n >= 3 else min(4**n - 1, 6)))
    every_word = ["".join(w) for w in itertools.product("IXYZ", repeat=n)][1:]
    words = draw(st.permutations(every_word))[:size]
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=size, max_size=size))
    return Hamiltonian([(s * w, word) for s, w, word in zip(signs, weights, words)])


@settings(max_examples=40, deadline=None)
@given(
    h=composition_inputs(),
    t=st.floats(0.05, 2.0),
    n=st.integers(1, 120),
    seed=st.integers(0, 2**64 - 1),
)
def test_composition_trials_equal_the_dense_path(h, t, n, seed):
    fast, form = _composition_form(h, t, n, trials=4, seed=seed)
    assert form == ("sparse" if h.L + 1 <= 2**h.n_qubits else "dense")
    slow = dense.dense_composition_check(h, t, n, trials=4, seed=seed)
    for got, want in zip(fast, slow):
        assert (got.index, got.budget) == (want.index, want.budget)
        assert abs(got.d_tr - want.d_tr) <= TOL
        assert abs(got.expval_err - want.expval_err) <= TOL
        assert got.state_ok == want.state_ok and got.expval_ok == want.expval_ok


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_one_draw_probe_states_equal_the_per_state_loop(dim):
    for seed in range(50):
        got = ch._probe_states(np.random.default_rng(seed), dim, 40)
        want = dense.reference_probe_states(np.random.default_rng(seed), dim, 40)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    # A single term composes exactly, so its differences are roundoff alone.
    h=composition_inputs().filter(lambda h: h.L > 1),
    t=st.floats(0.05, 2.0),
    n=st.integers(1, 120),
    seed=st.integers(0, 2**64 - 1),
)
def test_composition_trace_norms_equal_svd_ones(h, t, n, seed):
    # The check's one eigvalsh is of the stacked differences (E^N - U)(rho).
    # eigvalsh reads the lower triangle and the real diagonal, and on that
    # Hermitian matrix the SVD trace norm must match to 1e-12 relative.  The
    # raw differences are Hermitian only to the roundoff of the states'
    # entries (each at most 1 in size), so against their own SVD the bound
    # is 1e-15 absolute.
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        seen.append(a)
        return eigvalsh(a)

    with mock.patch.object(np.linalg, "eigvalsh", recorded):
        trials = ch.composition_check(h, t, n, trials=4, seed=seed)
    (diff,) = [a for a in seen if a.shape == (4, 2**h.n_qubits, 2**h.n_qubits)]
    lower = np.tril(diff, -1)
    hermitian = lower + lower.conj().swapaxes(1, 2)
    diag = np.arange(diff.shape[-1])
    hermitian[:, diag, diag] = diff[:, diag, diag].real
    by_svd = 0.5 * np.linalg.svd(hermitian, compute_uv=False).sum(axis=1)
    raw = 0.5 * np.linalg.svd(diff, compute_uv=False).sum(axis=1)
    for trial, want, near in zip(trials, by_svd, raw):
        assert trial.d_tr == pytest.approx(want, rel=1e-12, abs=0)
        assert abs(trial.d_tr - near) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(
    ns=st.lists(st.integers(1, 10**6), min_size=2, max_size=6, unique=True),
    logs=st.lists(st.floats(-700.0, 0.0), min_size=6, max_size=6),
)
# The exact slope is 0 and decay_slope returns 0.0; np.polyfit gave 1.2e-12.
@example(ns=[28, 29], logs=[-140.0, -140.0, 0.0, 0.0, 0.0, 0.0])
def test_closed_form_slope_equals_exact_least_squares(ns, logs):
    rows = [ch.BoundRow(n, math.exp(x), 1.0) for n, x in zip(ns, logs)]
    want = dense.reference_decay_slope(rows)
    # The closed form's roundoff: a few ulps of each centred product's size,
    # over sxx, which clustered N make small.
    xs = [math.log(r.N) for r in rows]
    ys = [math.log(r.d_lower) for r in rows]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum(abs(x - mean_x) * (abs(y) + abs(mean_y)) for x, y in zip(xs, ys))
    spread /= sum((x - mean_x) ** 2 for x in xs)
    tol = 1e-12 * max(1.0, abs(want)) + 8 * 2**-52 * spread
    assert abs(ch.decay_slope(rows) - want) <= tol


def test_slope_of_one_distinct_n_is_undefined():
    rows = [ch.BoundRow(10, 1e-3, 1.0), ch.BoundRow(10, 2e-3, 1.0), ch.BoundRow(100, 0.0, 1.0)]
    assert math.isnan(ch.decay_slope(rows))


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
    fast, form = _composition_form(h, t, n, trials=trials, seed=seed)
    assert form == ("sparse" if h.L < 16 else "dense")
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


@pytest.mark.parametrize(
    "terms, form",
    [
        ([(0.5, "Z"), (0.5, "X")], "dense"),  # the built-in suite's two-term-1q
        ([(-0.8, "XY")], "sparse"),
        (DENSE4, "sparse"),
    ],
    ids=["two-term-1q", "single-term-2q", "dense4"],
)
@pytest.mark.parametrize("t", [1e-3, 1e-5, 1e-7])
def test_small_t_compositions_pass(terms, form, t):
    # The 1e-12 slack of state_ok and expval_ok holds at small t on both branches.
    trials, taken = _composition_form(Hamiltonian(terms), t, 100, trials=20, seed=42)
    assert taken == form
    assert all(tr.state_ok and tr.expval_ok for tr in trials)


def _growth(h: Hamiltonian, two_lam_t: float, n: int) -> float:
    """log (1 + b)^n for the step of n segments over 2 lam t, b the largest row sum of |D|."""
    tau = two_lam_t / (2 * n)
    _, weights, _ = ch._pauli_rows(h, math.cos(tau), math.sin(tau))
    return n * math.log1p(float(np.abs(weights).sum(axis=-1).max()))


def _at_growth_cap(h: Hamiltonian, n: int) -> tuple[float, float]:
    """Neighbouring 2 lam t on either side of (1 + b)^n = 2^10, found by bisection."""
    lo, hi = 0.0, 64.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _growth(h, mid, n) <= 10 * math.log(2) else (lo, mid)
    return lo, hi


def _applications(fn, *args, **kwargs):
    """fn's result and the number of times it applied a step table."""
    with mock.patch.object(ch, "_apply_rows", wraps=ch._apply_rows) as apply:
        out = fn(*args, **kwargs)
    return out, apply.call_count


def _pauli_state_coordinates(dim: int, trials: int, seed: int) -> np.ndarray:
    """Uniform coordinates in [-1, 1] with r[0] = 1, the trace of a state."""
    r = np.random.default_rng(seed).uniform(-1.0, 1.0, (dim * dim, trials))
    r[0] = 1.0
    return r


# 8 terms on 4 qubits, the certify shape, scaled to lam = 2.
CERTIFY8 = [(2 * c / 2.5, w) for c, w in DENSE4 + [(0.25, "XXYY")]]
# The built-in suite's two-term-1q takes the dense matrix, DENSE4 the sparse rows.
TWO_TERM_1Q = [(0.5, "Z"), (0.5, "X")]
CAP_LO, CAP_HI = _at_growth_cap(Hamiltonian(DENSE4), 100)


@settings(max_examples=60, deadline=None)
@given(
    h=composition_inputs(max_qubits=4),
    two_lam_t=st.floats(0.0, 30.0),
    n=st.integers(1, 150),
    trials=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=Hamiltonian(DENSE4), two_lam_t=0.0, n=100, trials=3, seed=0)
@example(h=Hamiltonian(TWO_TERM_1Q), two_lam_t=0.0, n=100, trials=3, seed=0)
@example(h=Hamiltonian(DENSE4), two_lam_t=2.0, n=1, trials=2, seed=1)
@example(h=Hamiltonian(TWO_TERM_1Q), two_lam_t=2.0, n=1, trials=2, seed=1)
@example(h=Hamiltonian(DENSE4), two_lam_t=CAP_LO, n=100, trials=4, seed=2)
def test_pauli_steps_equal_the_reference_steps(h, two_lam_t, n, trials, seed):
    tau = two_lam_t / (2 * n)
    r = _pauli_state_coordinates(2**h.n_qubits, trials, seed)
    got = ch._pauli_steps(h, r, n, math.cos(tau), math.sin(tau))
    want = dense.reference_pauli_steps(h, r, n, math.cos(tau), math.sin(tau))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(r))
    if two_lam_t == 0.0:
        assert np.array_equal(got, r)


def test_certify_shaped_composition_takes_at_most_35_applications():
    h = Hamiltonian(CERTIFY8)
    assert (h.n_qubits, h.L, h.lam) == (4, 8, pytest.approx(2.0))
    assert _growth(h, 2 * h.lam, 100) <= 10 * math.log(2)
    _, count = _applications(ch.composition_check, h, 1.0, 100, trials=20, seed=42)
    assert count <= 35


@pytest.mark.parametrize("terms", [DENSE4, TWO_TERM_1Q], ids=["sparse", "dense"])
def test_past_the_growth_rule_steps_equal_the_reference_bit_for_bit(terms):
    h = Hamiltonian(terms)
    n, tau = 100, 12.0 / 200
    assert _growth(h, 12.0, n) > 10 * math.log(2)
    r = _pauli_state_coordinates(2**h.n_qubits, 5, 12)
    got, count = _applications(ch._pauli_steps, h, r, n, math.cos(tau), math.sin(tau))
    assert count == n
    assert np.array_equal(got, dense.reference_pauli_steps(h, r, n, math.cos(tau), math.sin(tau)))


def test_the_growth_rule_switches_at_the_cap():
    h = Hamiltonian(DENSE4)
    r = _pauli_state_coordinates(16, 3, 0)
    counts = []
    for two_lam_t in (CAP_LO, CAP_HI):
        tau = two_lam_t / 200
        counts.append(_applications(ch._pauli_steps, h, r, 100, math.cos(tau), math.sin(tau))[1])
    assert counts[0] < 100 and counts[1] == 100


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 2**-52, reason="long double is no wider than a float"
)
@pytest.mark.parametrize("two_lam_t", [1.0, 4.0])
@pytest.mark.parametrize("terms", [DENSE4, TWO_TERM_1Q], ids=["sparse", "dense"])
def test_series_is_at_least_as_accurate_as_the_steps(terms, two_lam_t):
    # The reference steps in extended precision from an extended-precision
    # cos and sin, so its step keeps the identity coordinate exactly.
    h = Hamiltonian(terms)
    n = 100
    tau = two_lam_t / (2 * n)
    r = _pauli_state_coordinates(2**h.n_qubits, 20, 7)
    wide_tau = np.longdouble(two_lam_t) / (2 * n)
    exact = dense.reference_pauli_steps(h, r, n, np.cos(wide_tau), np.sin(wide_tau), np.longdouble)
    series = ch._pauli_steps(h, r, n, math.cos(tau), math.sin(tau))
    steps = dense.reference_pauli_steps(h, r, n, math.cos(tau), math.sin(tau))
    assert np.max(np.abs(series - exact)) <= np.max(np.abs(steps - exact))


def _pauli_word(n_qubits: int, q: int) -> str:
    """The word of P(x, z), q = x d + z, the first letter the most significant bit."""
    x, z = q >> n_qubits, q & (2**n_qubits - 1)
    bits = [(x >> j & 1, z >> j & 1) for j in reversed(range(n_qubits))]
    return "".join("IZXY"[2 * bx + bz] for bx, bz in bits)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_pauli_products_equal_kronecker_products(n_qubits):
    dim = 2**n_qubits
    words = [_pauli_word(n_qubits, q) for q in range(dim * dim)]
    mats = [dense.pauli_to_matrix(w) for w in words]
    # The letter masks index each word's own coordinate.
    xk, zk = ch._letter_masks(Hamiltonian([(1.0, w) for w in words[1:]]))
    assert (xk * dim + zk).tolist() == list(range(1, dim * dim))
    q = np.arange(dim * dim)
    anti, e, partner = ch._pauli_products(n_qubits, q >> n_qubits, q & (dim - 1))
    powers = np.array([1, 1j, -1, -1j])
    for a, b in itertools.product(range(dim * dim), repeat=2):
        product = mats[a] @ mats[b]
        assert anti[a, b] == (not np.array_equal(product, mats[b] @ mats[a]))
        assert np.array_equal(product, powers[e[a, b]] * mats[partner[a, b]])


@settings(max_examples=30, deadline=None)
@given(h=hamiltonians(max_qubits=3), tau=st.floats(1e-4, 3.0))
def test_pauli_rows_equal_the_dense_transfer_matrix(h, tau):
    n = h.n_qubits
    dim = 2**n
    table, weights, step_diagonal = ch._pauli_rows(h, math.cos(tau), math.sin(tau))
    assert table.shape == (dim * dim, h.L + 1) and weights.shape == (dim * dim, 1, h.L + 1)
    rows = np.zeros((dim * dim, dim * dim))
    np.add.at(rows, (np.arange(dim * dim)[:, None], table), weights[:, 0])
    # No row repeats a column, so the dense branch's scatter is this sum.
    assert np.array_equal(ch._dense_step(table, weights), rows)
    # R[q, q'] = Tr(P(q) E(P(q'))) / d, with Tr(P X) = vec(P)^dag vec(X) for Hermitian P.
    basis = np.stack(
        [dense.vec(dense.pauli_to_matrix(_pauli_word(n, q))) for q in range(dim * dim)], axis=1
    )
    transfer = basis.conj().T @ dense.qdrift_channel(h, tau) @ basis / dim
    assert np.max(np.abs(transfer.imag)) <= 1e-13
    # The rows are D = R - I, and the step's own diagonal is R's.
    assert np.max(np.abs(np.eye(dim * dim) + rows - transfer.real)) <= 1e-13
    assert np.max(np.abs(step_diagonal - np.diag(transfer.real))) <= 1e-13


def test_all_255_four_qubit_words_equal_the_dense_path():
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=4)][1:]
    rng = np.random.default_rng(255)
    coeffs = rng.uniform(0.1, 1.0, len(words)) * rng.choice([-1.0, 1.0], len(words))
    coeffs *= 1.5 / np.abs(coeffs).sum()
    _assert_composition_equals_dense(list(zip(coeffs.tolist(), words)), 1.0, 100, 20, seed=255)


@pytest.mark.parametrize("size", [16, 17])
def test_four_qubit_dense_branch_equals_the_dense_path(size):
    # L = 16 and 17 are the first sizes past L + 1 <= d = 16.
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=4)][1:]
    rng = np.random.default_rng(size)
    chosen = rng.choice(len(words), size, replace=False)
    coeffs = rng.uniform(0.1, 1.0, size) * rng.choice([-1.0, 1.0], size)
    coeffs *= 1.5 / np.abs(coeffs).sum()
    terms = [(c, words[i]) for c, i in zip(coeffs.tolist(), chosen)]
    _assert_composition_equals_dense(terms, 1.0, 100, 20, seed=size)


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

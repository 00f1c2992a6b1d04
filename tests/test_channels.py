import math

import numpy as np
import pytest

import oracles as dense
from conftest import pauli_word_matrix, random_hamiltonian
from qdriftlab import channels as ch
from qdriftlab.compiler import compile_circuit
from qdriftlab.trotter import segment_error_bound, total_error_bound
from qdriftlab.hamiltonian import Hamiltonian


class TestPauliMatrices:
    def test_z(self):
        np.testing.assert_array_equal(dense.pauli_to_matrix("Z"), np.diag([1, -1]))

    def test_xx_antidiagonal(self):
        m = dense.pauli_to_matrix("XX")
        np.testing.assert_array_equal(m, np.fliplr(np.eye(4)))

    def test_negative_sign(self):
        np.testing.assert_array_equal(dense.pauli_to_matrix("Z", -1), np.diag([-1, 1]))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            dense.pauli_to_matrix("Z" * 7)

    @pytest.mark.parametrize("word,sign", [("X", 1), ("ZZ", -1), ("XYZ", 1), ("IYI", -1)])
    def test_hermitian_with_unit_norm(self, word, sign):
        m = dense.pauli_to_matrix(word, sign)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        sv = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(sv, 1.0, atol=1e-14)

    def test_hamiltonian_matrix_is_weighted_sum(self, three_term_2q):
        h = three_term_2q
        expected = sum(c * pauli_word_matrix(w) for w, c in zip(h.words, h.coefficients.tolist()))
        np.testing.assert_allclose(dense.hamiltonian_matrix(three_term_2q), expected, atol=1e-14)


class TestUnitaryExp:
    def test_zero_angle_is_identity(self):
        u = dense.unitary_exp(dense.pauli_to_matrix("XY"), 0.0)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-12)

    def test_z_at_pi_is_minus_identity(self):
        u = dense.unitary_exp(np.diag([1.0, -1.0]).astype(complex), math.pi)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("word", ["X", "ZZ", "XY", "YZX"])
    def test_pauli_rotation_identity(self, word):
        # exp(i theta P) = cos(theta) I + i sin(theta) P since P^2 = I
        theta = 0.37
        p = pauli_word_matrix(word)
        expected = math.cos(theta) * np.eye(p.shape[0]) + 1j * math.sin(theta) * p
        np.testing.assert_allclose(dense.unitary_exp(p, theta), expected, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dense.unitary_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestChannelConstruction:
    def test_single_term_is_unitary_channel(self, single_term_1q):
        tau = 0.21
        got = dense.qdrift_channel(single_term_1q, tau)
        u = dense.unitary_exp(dense.signed_paulis(single_term_1q)[0], tau)
        np.testing.assert_allclose(got, dense.unitary_channel(u), atol=1e-14)

    def test_zero_angle_is_identity_superoperator(self, three_term_2q):
        np.testing.assert_allclose(
            dense.qdrift_channel(three_term_2q, 0.0), np.eye(16), atol=1e-12
        )

    def test_summation_order_permutation_oracle(self, three_term_2q):
        tau = 0.11
        got = dense.qdrift_channel(three_term_2q, tau)
        acc = np.zeros_like(got)
        terms = list(zip(three_term_2q.weights.tolist(), dense.signed_paulis(three_term_2q)))
        for weight, p in reversed(terms):
            u = dense.unitary_exp(p, tau)
            acc += (weight / three_term_2q.lam) * np.kron(u.conj(), u)
        np.testing.assert_allclose(got, acc, atol=1e-13)

    def test_channels_are_tp_and_cp(self, three_term_2q):
        for s in (dense.qdrift_channel(three_term_2q, 0.3), dense.segment_channel(three_term_2q, 1.0, 7)):
            assert dense.is_trace_preserving(s)
            assert dense.choi_min_eigenvalue(s) >= -1e-10

    def test_segment_composes_to_full_unitary(self, three_term_2q):
        n = 9
        seg = dense.segment_channel(three_term_2q, 1.3, n)
        full = dense.unitary_channel(dense.unitary_exp(dense.hamiltonian_matrix(three_term_2q), 1.3))
        np.testing.assert_allclose(np.linalg.matrix_power(seg, n), full, atol=1e-8)

    def test_segment_approaches_identity(self, three_term_2q):
        d = np.abs(dense.segment_channel(three_term_2q, 1.0, 10**6) - np.eye(16)).max()
        assert d < 1e-5

    def test_single_term_segment_equals_mixing_channel(self, single_term_1q):
        t, n = 0.9, 11
        seg = dense.segment_channel(single_term_1q, t, n)
        mix = dense.qdrift_channel(single_term_1q, single_term_1q.lam * t / n)
        np.testing.assert_allclose(seg, mix, atol=1e-13)


class TestChoi:
    def test_choi_matches_kraus_construction(self):
        # independent oracle: mixed-unitary Choi = sum p |vec V><vec V| / d
        rng = np.random.default_rng(3)
        h = random_hamiltonian(rng, 2)
        tau = 0.17
        d = 4
        acc = np.zeros((d * d, d * d), dtype=complex)
        for weight, p in zip(h.weights.tolist(), dense.signed_paulis(h)):
            v = dense.unitary_exp(p, tau)
            vv = v.T.reshape(-1, 1)
            acc += (weight / h.lam) * (vv @ vv.conj().T)
        np.testing.assert_allclose(dense.choi_state(dense.qdrift_channel(h, tau)), acc / d, atol=1e-12)

    def test_choi_state_properties(self, three_term_2q):
        j = dense.choi_state(dense.qdrift_channel(three_term_2q, 0.4))
        assert np.trace(j).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(j, j.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(j).min() >= -1e-10

    def test_distance_of_channel_with_itself(self, three_term_2q):
        s = dense.qdrift_channel(three_term_2q, 0.2)
        assert dense.choi_distance(s, s) == pytest.approx(0.0, abs=1e-13)

    def test_distance_is_symmetric(self, three_term_2q):
        a = dense.qdrift_channel(three_term_2q, 0.2)
        b = dense.segment_channel(three_term_2q, 0.7, 3)
        assert dense.choi_distance(a, b) == pytest.approx(dense.choi_distance(b, a), rel=1e-12)

    def test_identity_vs_quarter_z_rotation(self):
        # eigenvalue oracle on the 16-dim Choi difference
        z = np.diag([1.0, -1.0]).astype(complex)
        a = np.eye(4, dtype=complex)
        b = dense.unitary_channel(dense.unitary_exp(z, math.pi / 2))
        diff = dense.choi_state(a) - dense.choi_state(b)
        oracle = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        assert dense.choi_distance(a, b) == pytest.approx(oracle, rel=1e-12)
        # exp(i pi Z / 2) is Z up to phase; the Choi states are orthogonal pure states
        assert dense.choi_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dense.choi_distance(np.eye(4), np.eye(16))


class TestVerifyBound:
    def test_two_term_rows_all_hold(self, two_term_1q):
        rows = ch.verify_bound(two_term_1q, 1.0, [10, 100, 1000])
        assert all(r.ok for r in rows)
        assert [r.N for r in rows] == [10, 100, 1000]
        for r in rows:
            assert r.bound == pytest.approx(segment_error_bound(1.0, 1.0, r.N), rel=1e-12)

    def test_single_term_distances_vanish(self, single_term_1q):
        rows = ch.verify_bound(single_term_1q, 1.0, [10, 100])
        for r in rows:
            assert r.d_lower <= 1e-12
            assert r.ok

    def test_slope_in_second_order_band(self, two_term_1q):
        rows = ch.verify_bound(two_term_1q, 1.0, [10, 100, 1000])
        assert -2.3 <= ch.decay_slope(rows) <= -1.7

    def test_mismatched_angle_degrades_slope(self, two_term_1q):
        rows = ch.verify_bound(two_term_1q, 1.0, [10, 100, 1000], tau_scale=2.0)
        assert ch.decay_slope(rows) > -1.5

    def test_rejects_bad_n(self, two_term_1q):
        with pytest.raises(ValueError):
            ch.verify_bound(two_term_1q, 1.0, [0])

    def test_closed_form_gates_match_eigendecomposition(self, three_term_2q):
        tau = 0.37
        gates = ch._KrausData(three_term_2q).gates(tau)
        for gate, p in zip(gates, dense.signed_paulis(three_term_2q)):
            expected = dense.unitary_exp(p, tau)
            np.testing.assert_allclose(gate, expected, rtol=0, atol=1e-14)

    def test_one_eigendecomposition_gives_every_target(self, three_term_2q):
        data = ch._KrausData(three_term_2q)
        h_matrix = dense.hamiltonian_matrix(three_term_2q)
        for theta in (1.0, 0.1, 0.01, -0.3):
            np.testing.assert_allclose(
                data.evolution(theta), dense.unitary_exp(h_matrix, theta), rtol=0, atol=1e-14
            )


class TestComposition:
    def test_single_term_is_exact(self, single_term_1q):
        trials = ch.composition_check(single_term_1q, 1.0, 50, trials=5)
        for tr in trials:
            assert tr.d_tr <= 1e-10
            assert tr.ok

    def test_two_term_within_budget(self, two_term_1q):
        trials = ch.composition_check(two_term_1q, 1.0, 100, trials=20, seed=99)
        assert len(trials) == 20
        assert all(tr.state_ok for tr in trials)
        assert all(tr.expval_ok for tr in trials)
        assert trials[0].budget == pytest.approx(total_error_bound(1.0, 1.0, 100), rel=1e-12)

    def test_distance_shrinks_with_n(self, two_term_1q):
        worst = [
            max(tr.d_tr for tr in ch.composition_check(two_term_1q, 1.0, n, trials=8, seed=5))
            for n in (10, 100, 1000)
        ]
        assert worst[0] > worst[1] > worst[2]

    def test_dimension_cap(self):
        h = Hamiltonian([(1.0, "ZZZZZ")])
        with pytest.raises(ValueError, match="cap"):
            ch.composition_check(h, 1.0, 10)


class TestEmpiricalChannel:
    def test_single_seed_is_pure_unitary_channel(self, two_term_1q):
        s = dense.empirical_channel(two_term_1q, 1.0, 0.1, [3])
        j = dense.choi_state(s)
        # pure Choi state: trace of J^2 equals 1
        assert np.trace(j @ j).real == pytest.approx(1.0, abs=1e-10)

    def test_seed_average_is_tp_and_cp(self, two_term_1q):
        s = dense.empirical_channel(two_term_1q, 1.0, 0.1, range(5))
        assert dense.is_trace_preserving(s)
        assert dense.choi_min_eigenvalue(s) >= -1e-10

    def test_single_term_matches_target_exactly(self, single_term_1q):
        t, eps = 0.8, 0.05
        s = dense.empirical_channel(single_term_1q, t, eps, [1, 2, 3])
        n = compile_circuit(single_term_1q, t, eps, 1).meta.N
        target = np.linalg.matrix_power(
            dense.qdrift_channel(single_term_1q, single_term_1q.lam * t / n), n
        )
        assert dense.choi_distance(s, target) <= 1e-12

    def test_monte_carlo_convergence_report(self, two_term_1q):
        t, eps = 1.0, 0.1
        n = compile_circuit(two_term_1q, t, eps, 0).meta.N
        target = np.linalg.matrix_power(dense.qdrift_channel(two_term_1q, t / n), n)
        dist_small = dense.choi_distance(
            dense.empirical_channel(two_term_1q, t, eps, range(1000)), target
        )
        dist_large = dense.choi_distance(
            dense.empirical_channel(two_term_1q, t, eps, range(10000)), target
        )
        print(f"empirical channel MC distances: 1e3 seeds {dist_small:.3e}, "
              f"1e4 seeds {dist_large:.3e}")
        # ~sqrt(10) shrink expected; only the loose factor is asserted
        assert dist_large < 5 * dist_small

    def test_empty_seed_list_rejected(self, two_term_1q):
        with pytest.raises(ValueError, match="non-empty"):
            dense.empirical_channel(two_term_1q, 1.0, 0.1, [])

import math
import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ANSWER_RANGES,
    answer_range,
    max_search_evaluations,
    reference_doubling_search,
    reference_log_total_bound,
    reference_segment_error_bound,
    scrambled_hamiltonian,
)
from qdriftlab import compiler, trotter
from qdriftlab.compiler import (
    AliasSampler,
    compile_circuit,
    elementary_gate_estimate,
    rng_from_seed,
)
from qdriftlab.trotter import (
    gate_count_approx,
    gate_count_exact,
    segment_error_bound,
    total_error_bound,
)
from qdriftlab.hamiltonian import Hamiltonian


def scan_gate_count(lam: float, t: float, eps: float, n_max: int = 10**6) -> int:
    """Independent oracle: first N with the direct product-form bound <= eps."""
    n = 1
    while (2.0 * lam * lam * t * t / n) * math.exp(2.0 * lam * t / n) > eps:
        n += 1
        assert n <= n_max, "oracle scan ran away"
    return n


class TestGateCountApprox:
    def test_frozen_values(self):
        assert gate_count_approx(1.0, 1.0, 1e-3) == 2000
        assert gate_count_approx(0.5, 2.0, 1e-2) == 200
        assert gate_count_approx(1.0, 1.0, 2.0) == 1

    def test_rejects_nonpositive(self):
        for bad in ((0.0, 1.0, 1e-3), (1.0, -1.0, 1e-3), (1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                gate_count_approx(*bad)

    @pytest.mark.parametrize("t,eps", [(1e200, 1e-3), (1e150, 1e-12)])
    def test_overflow_names_the_query(self, t, eps):
        # (lam t)^2 overflows, or the quotient is inf and has no ceiling.
        with pytest.raises(OverflowError, match=re.escape(f"(lam=1.0, t={t}, eps={eps})")):
            gate_count_approx(1.0, t, eps)


class TestGateCountExact:
    def test_frozen_against_scan_oracle(self):
        assert gate_count_exact(1.0, 1.0, 1e-3) == scan_gate_count(1.0, 1.0, 1e-3) == 2002

    @pytest.mark.parametrize(
        "lam,t,eps",
        [(0.5, 1.0, 1e-2), (1.0, 2.0, 0.05), (2.0, 0.3, 1e-3), (0.25, 4.0, 3e-3)],
    )
    def test_matches_scan_oracle(self, lam, t, eps):
        assert gate_count_exact(lam, t, eps) == scan_gate_count(lam, t, eps)

    def test_tiny_time_gives_one(self):
        assert gate_count_exact(1.0, 1e-12, 1e-3) == 1

    @pytest.mark.parametrize("lam,t", [(1e-10, 1e-320), (1e-300, 1e-300), (1.0, 5e-324)])
    def test_underflowing_lam_t_gives_one_with_zero_bound(self, lam, t):
        # log(lam * t) of a product that is not 0 would be fine; 0 has no log.
        n = gate_count_exact(lam, t, 1e-3)
        assert n == 1
        assert total_error_bound(lam, t, n) <= 1e-300

    @staticmethod
    def solve_and_count(lam, t, eps):
        """gate_count_exact's answer (None on overflow) and the log-bound evaluations it made."""
        search = trotter._smallest_within
        calls = []

        def recorded(bound, *args, **kwargs):
            return search(lambda n: calls.append(n) or bound(n), *args, **kwargs)

        with mock.patch.object(trotter, "_smallest_within", recorded):
            try:
                n = gate_count_exact(lam, t, eps)
            except OverflowError:
                n = None
        return n, len(calls)

    @settings(max_examples=300, deadline=None)
    @given(
        lam=st.floats(-3, 3).map(lambda e: 10.0**e),
        t=st.floats(-4, 80).map(lambda e: 10.0**e),
        eps=st.floats(-12, -0.5).map(lambda e: 10.0**e),
    )
    @example(lam=1.0, t=1e8, eps=1e-3)  # N about 2e19, past 2**53
    @example(lam=1.0, t=1e80, eps=1e-3)  # past 2**512: OverflowError
    # Where rounding is worst: at eps = 1e-300 the log terms at the root
    # are near 700, and N is just below 2**512, or just past it.
    @example(lam=1.0, t=8.1e-74, eps=1e-300)
    @example(lam=1e3, t=8.1e-77, eps=1e-300)
    @example(lam=1.0, t=8.2e-74, eps=1e-300)
    def test_same_answer_as_reference_search(self, lam, t, eps):
        # The located search returns exactly what doubling then bisection
        # returns on the same log bound, within the stated evaluation cost.
        n, evaluations = self.solve_and_count(lam, t, eps)
        bound = partial(reference_log_total_bound, lam, t)
        assert n == reference_doubling_search(bound, math.log(eps), trotter._N_LIMIT)
        assert evaluations <= max_search_evaluations(n)

    def test_grid_covers_every_answer_range(self):
        seen = set()
        for eps in (0.3, 1e-9):
            for t in np.logspace(-4, 80, 85):
                n, evaluations = self.solve_and_count(1.0, float(t), eps)
                bound = partial(reference_log_total_bound, 1.0, float(t))
                assert n == reference_doubling_search(bound, math.log(eps), trotter._N_LIMIT)
                assert evaluations <= max_search_evaluations(n)
                seen.add(answer_range(n))
        assert seen == ANSWER_RANGES

    def test_exact_at_least_approx_on_random_grid(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            lam = rng.uniform(0.1, 5.0)
            t = rng.uniform(0.1, 20.0)
            eps = 10.0 ** rng.uniform(-6, -1)
            assert gate_count_exact(lam, t, eps) >= gate_count_approx(lam, t, eps)

    def test_minimality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lam = rng.uniform(0.2, 3.0)
            t = rng.uniform(0.2, 5.0)
            eps = 10.0 ** rng.uniform(-4, -1)
            n = gate_count_exact(lam, t, eps)
            assert total_error_bound(lam, t, n) <= eps
            if n > 1:
                assert total_error_bound(lam, t, n - 1) > eps

    def test_monotone_in_eps_t_lam(self):
        for eps_hi, eps_lo in ((1e-2, 1e-3), (1e-3, 1e-4)):
            assert gate_count_exact(1, 1, eps_hi) <= gate_count_exact(1, 1, eps_lo)
        for t_lo, t_hi in ((0.5, 1.0), (1.0, 3.0)):
            assert gate_count_exact(1, t_lo, 1e-3) <= gate_count_exact(1, t_hi, 1e-3)
        for lam_lo, lam_hi in ((0.5, 1.0), (1.0, 2.0)):
            assert gate_count_exact(lam_lo, 1, 1e-3) <= gate_count_exact(lam_hi, 1, 1e-3)


class TestSmallestWithin:
    @settings(max_examples=300, deadline=None)
    @given(
        threshold=st.integers(1, 2**70),
        limit=st.sampled_from([2**10, 2**63, 2**512]),
        start=st.floats(0, 2.0**80) | st.sampled_from([math.inf, math.nan]),
        logs=st.booleans(),
    )
    def test_same_answer_as_reference(self, threshold, limit, start, logs):
        # A step function is exactly monotone: whatever the start, the
        # answer is the threshold, or None once it lies past the limit.
        def bound(n):
            return 0.0 if n >= threshold else 1.0

        found = trotter._smallest_within(bound, 0.5, limit, start, logs)
        expected = reference_doubling_search(bound, 0.5, limit)
        if found is None:
            assert expected is None and threshold > limit
        else:
            # The answer, and the bound there as the search evaluated it.
            assert found == (expected, 0.0) == (threshold, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        threshold=st.integers(2**37, 2**70),
        salt=st.integers(0, 2**64 - 1),
        start=st.floats(2.0**36, 2.0**71),
        logs=st.booleans(),
    )
    def test_noise_inside_the_margin_replays_the_reference(self, threshold, salt, start, logs):
        # Near its root a float bound need not be monotone.  Within a
        # relative 1e-13 of the threshold this one passes or fails at
        # random; the replay evaluates every reference probe there, so it
        # returns the reference's answer and the bound it evaluated there.
        width = threshold // 10**13

        def bound(n):
            if abs(n - threshold) > width:
                return 0.0 if n > threshold else 1.0
            return float((n * 0x9E3779B97F4A7C15 ^ salt) >> 31 & 1)

        found = trotter._smallest_within(bound, 0.5, 2**512, start, logs)
        assert found == (reference_doubling_search(bound, 0.5, 2**512), 0.0)

    def test_limits_are_powers_of_two(self):
        # The search's last doubling probe is its limit.
        for limit in (trotter.R_MAX, trotter._N_LIMIT):
            assert limit > 1 and limit & (limit - 1) == 0


class TestErrorBoundOverflow:
    def test_huge_t_gives_inf(self):
        assert segment_error_bound(1.0, 1e6, 10) == math.inf
        assert total_error_bound(1.0, 1e6, 10) == math.inf
        # verify --t 5000 evaluates N = 10 rows: x = 2 lam t / N = 1000 lam, past 709 for lam = 1.
        assert segment_error_bound(1.0, 5000.0, 10) == math.inf

    @pytest.mark.parametrize("x", [1e-9, 0.3, 1.0, 17.5, 300.0, 690.0, 697.0, 700.0, 709.0, 709.7])
    def test_bit_identical_to_unguarded_formula(self, x):
        # lam * t chosen so that 2 lam t / N = x at N = 10.
        for lam, t, n in ((1.0, 5.0 * x, 10), (0.25, 20.0 * x, 10)):
            assert segment_error_bound(lam, t, n) == reference_segment_error_bound(lam, t, n)
            assert total_error_bound(lam, t, n) == n * reference_segment_error_bound(lam, t, n)

    def test_total_of_an_underflowed_segment_bound_is_not_zero(self):
        # At the count for eps = 2e-172 the segment bound (about 2e-326)
        # rounds to 0, but the total is 2e-172; n times 0 printed 0.
        n = gate_count_exact(1e-9, 1.0, 2e-172)
        assert segment_error_bound(1e-9, 1.0, n) == 0.0
        total = total_error_bound(1e-9, 1.0, n)
        assert total == pytest.approx(math.exp(reference_log_total_bound(1e-9, 1.0, n)), rel=1e-12)
        assert 0.0 < total <= 2e-172

    def test_one_exp_helper(self):
        # The qDRIFT bounds share the product-formula bounds' overflow guard.
        assert not hasattr(compiler, "_exp_or_inf")
        assert segment_error_bound.__globals__["_exp_or_inf"] is trotter._exp_or_inf


class TestAliasSampler:
    def test_probabilities_forced_by_normalization(self):
        sampler = AliasSampler([1.0, 3.0])
        assert sampler.probabilities.tolist() == [0.25, 0.75]

    def test_table_reconstructs_distribution(self):
        # Exact identity of the alias structure: column j is hit with
        # probability (prob[j] + sum of (1 - prob[k]) over aliases k -> j) / L.
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = rng.uniform(0.01, 1.0, size=int(rng.integers(1, 12)))
            sampler = AliasSampler(w)
            cell = sampler._prob.copy()
            recon = cell.copy()
            for k, a in enumerate(sampler._alias):
                if a != k:
                    recon[a] += 1.0 - cell[k]
            np.testing.assert_allclose(recon / w.size, sampler.probabilities, atol=1e-12)

    def test_single_term_always_zero(self):
        sampler = AliasSampler([2.5])
        rng = rng_from_seed(3)
        assert all(sampler.sample_many(rng, 1)[0] == 0 for _ in range(50))

    def test_uniform_frequencies_at_seed_42(self):
        sampler = AliasSampler([1.0, 1.0, 1.0, 1.0])
        draws = sampler.sample_many(rng_from_seed(42), 100_000)
        freqs = np.bincount(draws, minlength=4) / 100_000
        # spec band 0.01; the 5-sigma binomial band is ~0.0068
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_weighted_frequencies_within_five_sigma(self):
        weights = [0.1, 0.7, 0.2, 1.3]
        sampler = AliasSampler(weights)
        m = 100_000
        draws = sampler.sample_many(rng_from_seed(7), m)
        counts = np.bincount(draws, minlength=len(weights))
        for j, p in enumerate(sampler.probabilities):
            sigma = math.sqrt(p * (1 - p) / m)
            assert abs(counts[j] / m - p) <= 5 * sigma

    def test_sample_uses_hamiltonian_weights(self, two_term_1q):
        j = AliasSampler(two_term_1q.weights).sample_many(rng_from_seed(0), 1)[0]
        assert j in (0, 1)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            AliasSampler([])
        with pytest.raises(ValueError):
            AliasSampler([1.0, 0.0])


class TestCompile:
    def test_approx_mode_length_and_angle(self, two_term_1q):
        c = compile_circuit(two_term_1q, 1.0, 1e-3, seed=5, mode="approx")
        assert len(c) == 2000
        assert c.tau == 1.0 / 2000
        gate_lines = c.to_text().splitlines()[4:]
        assert len(gate_lines) == 2000
        assert {float(line.split()[-1]) for line in gate_lines} == {c.tau}

    def test_angle_times_count_recovers_lam_t(self, three_term_2q):
        c = compile_circuit(three_term_2q, 0.7, 1e-2, seed=9)
        assert c.meta.N * c.tau == pytest.approx(three_term_2q.lam * 0.7, rel=1e-15)

    def test_single_term_always_index_zero(self, single_term_1q):
        c = compile_circuit(single_term_1q, 1.0, 1e-2, seed=13)
        assert np.all(c.term_indices == 0)
        # N * tau = lam * t = h1 * t, so the product implements exp(i t h1 H1)
        assert c.meta.N * c.tau == pytest.approx(0.7, rel=1e-15)

    def test_same_seed_bit_identical(self, two_term_1q):
        a = compile_circuit(two_term_1q, 1.0, 1e-3, seed=123)
        b = compile_circuit(two_term_1q, 1.0, 1e-3, seed=123)
        assert a == b
        assert a.to_text() == b.to_text()

    def test_term_order_does_not_matter(self):
        a = Hamiltonian([(0.7, "ZZ"), (0.2, "XI"), (0.4, "IY")])
        b = Hamiltonian([(0.4, "IY"), (0.7, "ZZ"), (0.2, "XI")])
        ca = compile_circuit(a, 1.0, 1e-2, seed=5)
        cb = compile_circuit(b, 1.0, 1e-2, seed=5)
        assert ca == cb
        assert ca.to_text() == cb.to_text()
        # Equal weights draw equal gates, but other words or signs are another circuit.
        cc = compile_circuit(Hamiltonian([(0.6, "ZZ"), (0.4, "XI")]), 1, 1e-3, 7)
        cd = compile_circuit(Hamiltonian([(0.6, "XX"), (-0.4, "YI")]), 1, 1e-3, 7)
        assert np.array_equal(cc.term_indices, cd.term_indices)
        assert cc != cd
        assert cc.to_text() != cd.to_text()

    def test_different_seeds_differ(self, two_term_1q):
        a = compile_circuit(two_term_1q, 1.0, 1e-3, seed=1)
        b = compile_circuit(two_term_1q, 1.0, 1e-3, seed=2)
        assert a.meta.N == b.meta.N
        assert a.tau == b.tau
        assert not np.array_equal(a.term_indices, b.term_indices)

    def test_frozen_gate_stream(self, two_term_1q):
        # Pins the reproducibility contract (Philox key + one uniform/draw).
        c = compile_circuit(two_term_1q, 1.0, 0.5, seed=42, mode="approx")
        assert c.term_indices.tolist() == [1, 0, 1, 0]

    def test_gate_lines_format(self, three_term_2q):
        c = compile_circuit(three_term_2q, 1.0, 0.3, seed=8, mode="approx")
        lines = c.to_text().splitlines()
        assert lines[0] == "# qdrift-circ v1"
        assert lines[1] == "# seed=8"
        assert lines[2] == f"# N={c.meta.N}"
        assert lines[3].startswith("# tau=")
        assert len(lines) == 4 + c.meta.N
        for ln in lines[4:]:
            op, j, word, tau = ln.split()
            assert op == "ROT"
            assert word[0] in "+-"
            assert float(tau) == c.tau

    def test_rejects_bad_inputs(self, two_term_1q):
        with pytest.raises(ValueError):
            compile_circuit(two_term_1q, 0.0, 1e-3, seed=1)
        with pytest.raises(ValueError):
            compile_circuit(two_term_1q, 1.0, -1e-3, seed=1)
        with pytest.raises(ValueError):
            compile_circuit(two_term_1q, 1.0, 1e-3, seed=-1)
        with pytest.raises(ValueError):
            compile_circuit(two_term_1q, 1.0, 1e-3, seed=2**64)
        with pytest.raises(ValueError):
            compile_circuit(two_term_1q, 1.0, 1e-3, seed=1, mode="other")

    @pytest.mark.parametrize(
        "indices, message",
        [
            (np.array([70000, 3]), "term index 70000 at gate 0 is out of range for a 5000-term"),
            (np.array([3, -1]), "term index -1 at gate 1 is out of range"),
            (np.array([0, 4999, 5000]), "term index 5000 at gate 2 is out of range"),
            (np.array([[0, 1]]), "1-d integer array, got shape \\(1, 2\\)"),
            (np.array([0.0, 1.0]), "1-d integer array, got shape \\(2,\\) and dtype float64"),
        ],
        ids=["past-uint16", "negative", "one-past-end", "2-d", "float"],
    )
    def test_circuit_rejects_bad_term_indices(self, indices, message):
        h = scrambled_hamiltonian(5000, 7, key=3)
        meta = compiler.CircuitMeta(seed=0, N=indices.size, t=1.0, eps=0.1, lam=h.lam, mode="exact")
        with pytest.raises(ValueError, match=message):
            compiler.Circuit(indices, 0.1, meta, h)

    def test_circuit_rejects_a_count_other_than_meta_n(self, two_term_1q):
        meta = compiler.CircuitMeta(seed=0, N=5, t=1.0, eps=0.1, lam=two_term_1q.lam, mode="exact")
        with pytest.raises(ValueError, match="meta.N=5 but 3 term indices"):
            compiler.Circuit(np.zeros(3, dtype=np.int64), 1.0, meta, two_term_1q)

    def test_circuit_keeps_its_indices_from_later_writes(self, two_term_1q):
        meta = compiler.CircuitMeta(seed=0, N=2, t=1.0, eps=0.1, lam=two_term_1q.lam, mode="exact")
        given = np.array([0, 1], dtype=np.uint16)
        circuit = compiler.Circuit(given, 0.5, meta, two_term_1q)
        text = circuit.to_text()
        given[0] = 7
        assert circuit.term_indices.tolist() == [0, 1]
        assert circuit.to_text() == text
        with pytest.raises(ValueError):
            circuit._indices[0] = 1

    def test_compile_hands_over_its_indices_without_a_copy(self, three_term_2q):
        drawn = []
        sample_many = AliasSampler.sample_many

        def record(self, rng, count):
            drawn.append(sample_many(self, rng, count))
            return drawn[-1]

        with mock.patch.object(AliasSampler, "sample_many", record):
            circuit = compile_circuit(three_term_2q, 1.0, 0.3, seed=8, mode="approx")
        assert circuit._indices is drawn[0]
        assert not circuit._indices.flags.writeable

    def test_bad_arguments_fail_in_order_before_sorting(self, two_term_1q):
        cases = [
            ((0.0, -1e-3, -1, "other"), "t must be"),
            ((1.0, -1e-3, -1, "other"), "eps must be"),
            ((1.0, 1e-3, -1, "other"), "seed must be"),
            ((1.0, 1e-3, 1, "other"), "mode must be"),
        ]
        sort = mock.Mock(side_effect=AssertionError("canonical() ran"))
        with mock.patch.object(type(two_term_1q), "canonical", sort):
            for (t, eps, seed, mode), message in cases:
                with pytest.raises(ValueError, match=message):
                    compile_circuit(two_term_1q, t, eps, seed=seed, mode=mode)
        assert sort.call_count == 0

    @given(
        t=st.floats(min_value=1e-3, max_value=5.0),
        eps=st.floats(min_value=1e-2, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_angle_identity_property(self, t, eps, seed):
        h = Hamiltonian([(0.4, "Z"), (0.6, "X")])
        c = compile_circuit(h, t, eps, seed, mode="approx")
        assert len(c) == c.meta.N
        assert abs(c.meta.N * c.tau - h.lam * t) <= 1e-12 * max(1.0, h.lam * t)


class TestControlledCompile:
    def test_same_count_and_stream_as_uncontrolled(self, two_term_1q):
        plain = compile_circuit(two_term_1q, 1.0, 1e-3, seed=77)
        ctrl = compile_circuit(two_term_1q, 1.0, 1e-3, seed=77, controlled=True)
        assert ctrl.meta.N == plain.meta.N
        assert np.array_equal(ctrl.term_indices, plain.term_indices)
        assert ctrl.meta.controlled and not plain.meta.controlled

    def test_elementary_estimate_doubles(self, two_term_1q):
        # eps = 0.02 puts the quadratic count at exactly 100
        ctrl = compile_circuit(two_term_1q, 1.0, 0.02, seed=3, mode="approx", controlled=True)
        assert ctrl.meta.N == 100
        assert elementary_gate_estimate(ctrl) == {"rotations": 200, "control_x": 200}
        plain = compile_circuit(two_term_1q, 1.0, 0.02, seed=3, mode="approx")
        assert elementary_gate_estimate(plain) == {"rotations": 100, "control_x": 0}

    def test_crot_lines(self, two_term_1q):
        ctrl = compile_circuit(two_term_1q, 1.0, 0.5, seed=3, mode="approx", controlled=True)
        body = ctrl.to_text().splitlines()[4:]
        assert all(ln.startswith("CROT ") for ln in body)

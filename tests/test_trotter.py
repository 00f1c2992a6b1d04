import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ANSWER_RANGES,
    PRINTED_NK_CONSTANTS,
    answer_range,
    closed_form_suzuki_count,
    max_search_evaluations,
    reference_count,
    reference_crossover_time,
    reference_doubling_search,
    reference_log_grid,
    reference_product_bound,
    suzuki_b_constant,
    suzuki_prefactor,
)
from qdriftlab import cli, trotter
from qdriftlab.hamiltonian import WeightProfile
from qdriftlab.trotter import (
    COST_CSV_HEADER,
    DEFAULT_CANDIDATES,
    QDRIFT,
    R_MAX,
    SUZUKI_DET,
    SUZUKI_RANDOM,
    TROTTER_DET,
    TROTTER_RANDOM,
    CostQuery,
    CostReport,
    best_method,
    crossover_time,
    error_function,
    gate_count,
    gate_counts,
    gates_per_segment,
    log_grid,
    qdrift_costs_more,
    solve_r,
    suzuki_error,
    trotter_error_det,
    trotter_error_random,
)

# ---------------------------------------------------------------------------
# direct-formula oracles (plain arithmetic, no log-space tricks)


def det_oracle(L, lam_max, t, r):
    return (L * lam_max * t) ** 2 / (2 * r) * math.exp(lam_max * t / r)


def ab_oracle(L, lam_max, t, r):
    a = (L * lam_max * t) ** 2 / r**2 * math.exp(lam_max * t / r)
    b = (L * lam_max * t) ** 3 / (3 * r**3) * math.exp(lam_max * t / r)
    return a, b


def rand_oracle(L, lam_max, t, r):
    a, b = ab_oracle(L, lam_max, t, r)
    return (r / 2) * (a * a + 2 * b)


def suzuki_ab_oracle(k, L, lam_max, t, r):
    big = 2 * 5 ** (k - 1)
    e = math.exp(big * lam_max * t / r)
    a = 2 * (big * lam_max * t * L) ** (2 * k + 1) / (
        math.factorial(2 * k + 1) * r ** (2 * k + 1)
    ) * e
    b = (big * lam_max * t) ** (2 * k + 1) * L ** (2 * k) / (
        math.factorial(2 * k - 1) * r ** (2 * k + 1)
    ) * e
    return a, b


def suzuki_oracle(k, L, lam_max, t, r, variant):
    a, b = suzuki_ab_oracle(k, L, lam_max, t, r)
    return (r / 2) * a if variant == "det" else (r / 2) * (a * a + 2 * b)


def scan_r(error_fn, eps, r_max=10**5):
    r = 1
    while error_fn(r) > eps:
        r += 1
        assert r <= r_max, "oracle scan ran away"
    return r


class TestErrorFormulas:
    def test_det_frozen_value(self):
        value = trotter_error_det(2, 1.0, 1.0, 2000)
        assert value == pytest.approx(2 / 2000 * math.exp(1 / 2000), rel=1e-12)
        assert value == pytest.approx(1.0005e-3, rel=1e-3)

    @pytest.mark.parametrize("L,lam_max,t,r", [(2, 1, 1, 3), (5, 0.3, 2, 7), (1, 2, 0.5, 1)])
    def test_det_matches_oracle(self, L, lam_max, t, r):
        assert trotter_error_det(L, lam_max, t, r) == pytest.approx(
            det_oracle(L, lam_max, t, r), rel=1e-12
        )

    @pytest.mark.parametrize("L,lam_max,t,r", [(2, 1, 1, 2000), (3, 0.5, 2, 50), (4, 1, 1, 9)])
    def test_random_matches_oracle(self, L, lam_max, t, r):
        assert trotter_error_random(L, lam_max, t, r) == pytest.approx(
            rand_oracle(L, lam_max, t, r), rel=1e-12
        )

    def test_zero_time_is_zero(self):
        assert trotter_error_det(3, 1.0, 0.0, 5) == 0.0
        assert trotter_error_random(3, 1.0, 0.0, 5) == 0.0
        for k in (1, 2, 3):
            assert suzuki_error(k, 3, 1.0, 0.0, 5, "det") == 0.0
            assert suzuki_error(k, 3, 1.0, 0.0, 5, "random") == 0.0

    def test_doubling_r_strictly_decreases_det(self):
        r = 4
        for _ in range(8):
            assert trotter_error_det(2, 1.0, 1.0, 2 * r) < trotter_error_det(2, 1.0, 1.0, r)
            r *= 2

    def test_random_below_det_in_small_a_regime(self):
        # random <= det whenever a <= 1 and b <= (a/2)(1 - a)
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            L = int(rng.integers(1, 8))
            lam_max = rng.uniform(0.1, 1.5)
            t = rng.uniform(0.1, 3.0)
            r = int(rng.integers(1, 500))
            a, b = ab_oracle(L, lam_max, t, r)
            if a <= 1 and b <= a / 2 * (1 - a):
                checked += 1
                assert trotter_error_random(L, lam_max, t, r) <= trotter_error_det(
                    L, lam_max, t, r
                ) * (1 + 1e-12)
        assert checked > 20

    def test_suzuki_frozen_k1(self):
        a_expected = 2 * (2 * 1 * 1 * 1) ** 3 / (math.factorial(3) * 10**3) * math.exp(0.2)
        assert suzuki_error(1, 1, 1.0, 1.0, 10, "det") == pytest.approx(
            10 / 2 * a_expected, rel=1e-12
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["det", "random"])
    def test_suzuki_matches_oracle(self, k, variant):
        for L, lam_max, t, r in [(2, 0.7, 1.3, 17), (4, 1.0, 0.4, 3)]:
            assert suzuki_error(k, L, lam_max, t, r, variant) == pytest.approx(
                suzuki_oracle(k, L, lam_max, t, r, variant), rel=1e-12
            )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_suzuki_det_halving_scale(self, k):
        # at large r the det bound drops by ~2^(2k) when r doubles
        r = 10**6
        ratio = suzuki_error(k, 2, 1.0, 1.0, r, "det") / suzuki_error(k, 2, 1.0, 1.0, 2 * r, "det")
        assert ratio == pytest.approx(2 ** (2 * k), rel=1e-3)

    def test_overflow_returns_inf_sentinel(self):
        value = trotter_error_det(2, 1.0, 1e6, 1)
        assert math.isinf(value)
        value = trotter_error_random(2, 1.0, 1e6, 1)
        assert math.isinf(value)
        value = suzuki_error(3, 2, 1.0, 1e6, 1, "random")
        assert math.isinf(value)
        # L lam_max t and the order-2k c overflow to inf, so 2 log a and
        # log 2b are both inf; the random bound returns inf, not inf - inf = nan.
        value = trotter_error_random(2, 1.0, 1e308, 1)
        assert math.isinf(value)
        value = suzuki_error(3, 2, 1e10, 1e300, 1, "random")
        assert math.isinf(value)

    # At t = 0 every bound is exactly 0, also where L lam_max or
    # 2 5^(k-1) lam_max overflows and the product with t would be inf * 0 = nan.
    @pytest.mark.parametrize("method", DEFAULT_CANDIDATES, ids=lambda m: m.label)
    def test_zero_time_is_zero_when_the_product_overflows(self, method):
        err = error_function(method, WeightProfile(10**12, 1.7e308, 1.7e308), 0.0)
        assert [err(r) for r in (1, 2, 10**6, 2**62)] == [0.0] * 4
        assert err.start(1e-3) == 1.0

    @pytest.mark.parametrize(
        "bound",
        [
            partial(trotter_error_det, 10**12, 1e299),
            partial(trotter_error_random, 10**12, 1e299),
            partial(suzuki_error, 1, 1, 1.7e308),
            partial(suzuki_error, 3, 10**12, 1e307, variant="random"),
        ],
        ids=["trotter-det", "trotter-random", "suzuki2-det", "suzuki6-random"],
    )
    def test_public_zero_time_bound_is_zero_when_the_product_overflows(self, bound):
        assert bound(0.0, 1) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            trotter_error_det(2, 1.0, 1.0, 0)
        with pytest.raises(ValueError, match=r"suzuki k must be in \(1, 2, 3\), got 4"):
            suzuki_error(4, 2, 1.0, 1.0, 5, "det")
        with pytest.raises(ValueError, match="variant must be 'det' or 'random', got 'median'"):
            suzuki_error(1, 2, 1.0, 1.0, 5, "median")

    def test_segment_count_takes_any_integer_type(self):
        # numpy's integer types register as numbers.Integral; floats do not.
        assert trotter_error_det(2, 1.0, 1.0, np.int64(3)) == trotter_error_det(2, 1.0, 1.0, 3)
        for r in (3.0, 0, np.float64(3)):
            with pytest.raises(ValueError, match="segment count r must be an integer >= 1"):
                trotter_error_det(2, 1.0, 1.0, r)


class TestSolveR:
    def test_frozen_first_order(self):
        fn = lambda r: trotter_error_det(2, 1.0, 1.0, r)
        assert solve_r(fn, 1e-3) == scan_r(lambda r: det_oracle(2, 1.0, 1.0, r), 1e-3) == 2001

    def test_loose_target_gives_one(self):
        fn = lambda r: trotter_error_det(2, 1.0, 0.1, r)
        assert solve_r(fn, 10.0) == 1

    def test_minimality_on_random_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            L = int(rng.integers(1, 6))
            lam_max = rng.uniform(0.2, 1.5)
            t = rng.uniform(0.2, 4.0)
            eps = 10.0 ** rng.uniform(-4, -1)
            method = rng.choice(["det", "random", "s1", "s2"])
            if method == "det":
                fn = lambda r: trotter_error_det(L, lam_max, t, r)
            elif method == "random":
                fn = lambda r: trotter_error_random(L, lam_max, t, r)
            else:
                k = 1 if method == "s1" else 2
                fn = lambda r: suzuki_error(k, L, lam_max, t, r, "random")
            r = solve_r(fn, eps)
            assert fn(r) <= eps
            if r > 1:
                assert fn(r - 1) > eps

    def test_unreachable_target_overflows(self):
        fn = lambda r: trotter_error_det(3, 1.0, 1e9, r)
        with pytest.raises(OverflowError):
            solve_r(fn, 1e-30)


def public_bound(method, L, lam_max, t):
    """The method's checked public bound function at (L, lam_max, t), as r -> bound."""
    if method.family == "trotter":
        return partial(trotter_error_det if method.variant == "det" else trotter_error_random, L, lam_max, t)
    return partial(suzuki_error, method.k, L, lam_max, t, variant=method.variant)


def solve_and_count(err, eps):
    """solve_r's answer on ``err`` (None on overflow) and the evaluations it made."""
    calls = []

    def counted(r):
        calls.append(r)
        return err(r)

    counted.start = err.start
    try:
        r = solve_r(counted, eps)
    except OverflowError:
        r = None
    return r, len(calls)


class TestSolveRReference:
    """solve_r on error_function's callable returns what the doubling/bisection
    reference returns on the public bound, within the stated evaluation cost."""

    @pytest.mark.parametrize("method", DEFAULT_CANDIDATES, ids=lambda m: m.label)
    @settings(max_examples=150, deadline=None)
    @given(
        L=st.integers(1, 300_000),
        lam_max=st.floats(-3, 1).map(lambda e: 10.0**e),
        spread=st.floats(0, 1),
        t=st.floats(-4, 12).map(lambda e: 10.0**e),
        eps=st.floats(-12, math.log10(0.3)).map(lambda e: 10.0**e),
    )
    @example(L=1, lam_max=1.0, spread=0.0, t=1e8, eps=1e-3)
    # Where rounding is worst: eps near 1e-300 and L = 1e6 put the log terms
    # at the root near 1,000; each t puts one family's answer near 2**62.
    @example(L=10**6, lam_max=1.0, spread=0.0, t=3e-147, eps=1e-300)
    @example(L=10**6, lam_max=1.0, spread=0.0, t=4e-94, eps=1e-300)
    @example(L=10**6, lam_max=1.0, spread=0.0, t=2.5e-94, eps=1e-300)
    @example(L=10**6, lam_max=1.0, spread=0.0, t=1.4e-92, eps=1e-300)
    @example(L=10**6, lam_max=1.0, spread=0.0, t=2.2e-52, eps=1e-300)
    @example(L=10**6, lam_max=1.0, spread=0.0, t=1.9e-51, eps=1e-300)
    @example(L=10**6, lam_max=1.0, spread=0.0, t=9.3e-35, eps=1e-300)
    @example(L=10**6, lam_max=1.0, spread=0.0, t=3.9e-34, eps=1e-300)
    def test_same_answer_as_reference_search(self, method, L, lam_max, spread, t, eps):
        # lam runs from lam_max to L * lam_max; the product-formula bounds do not read it.
        profile = WeightProfile(L, lam_max * (1 + spread * (L - 1)), lam_max)
        r, evaluations = solve_and_count(error_function(method, profile, t), eps)
        assert r == reference_doubling_search(public_bound(method, L, lam_max, t), eps, R_MAX)
        assert evaluations <= max_search_evaluations(r)

    @pytest.mark.parametrize("method", DEFAULT_CANDIDATES, ids=lambda m: m.label)
    def test_grid_covers_every_answer_range(self, method):
        seen = set()
        for eps in (0.3, 1e-9):
            for t in np.logspace(-7, 14, 85):
                err = error_function(method, WeightProfile(1000, 1000.0, 1.0), float(t))
                r, evaluations = solve_and_count(err, eps)
                assert r == reference_doubling_search(public_bound(method, 1000, 1.0, float(t)), eps, R_MAX)
                assert evaluations <= max_search_evaluations(r)
                seen.add(answer_range(r))
        assert seen == ANSWER_RANGES

    @pytest.mark.parametrize("method", DEFAULT_CANDIDATES, ids=lambda m: m.label)
    @settings(max_examples=100, deadline=None)
    @given(
        L=st.integers(1, 300_000),
        lam_max=st.floats(-3, 1).map(lambda e: 10.0**e),
        t=st.one_of(
            st.just(0.0),
            st.floats(-4, 12).map(lambda e: 10.0**e),
            st.floats(300, 308.25).map(lambda e: 10.0**e),
        ),
        r=st.integers(1, 2**63),
        eps=st.floats(-300, 0).map(lambda e: 10.0**e),
    )
    @example(L=1, lam_max=1.0, t=0.0, r=1, eps=1e-3)
    @example(L=300_000, lam_max=10.0, t=1e308, r=2**63, eps=1e-300)
    @example(L=1, lam_max=1e-3, t=1e308, r=1, eps=0.5)
    def test_callable_is_bit_identical_to_public_bound(self, method, L, lam_max, t, r, eps):
        # The oracle is the pair of builders that one builder replaced.
        bound, terms = reference_product_bound(method, L, lam_max, t)
        err = error_function(method, WeightProfile(L, lam_max, lam_max), t)
        assert err(r) == public_bound(method, L, lam_max, t)(r) == bound(r)
        assert err.start(eps) == trotter._leading_root(terms, eps)

    def test_error_function_checks_its_arguments_once(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            error_function(TROTTER_DET, WeightProfile(2, 1.0, 1.0), -1.0)
        with pytest.raises(ValueError, match="no segment error function"):
            error_function(QDRIFT, WeightProfile(2, 1.0, 1.0), 1.0)


class TestTinyTime:
    """L * lam_max * t underflows to 0: every bound is 0 and one segment suffices."""

    PROFILE = WeightProfile(1, 1e-10, 1e-10)

    @pytest.mark.parametrize("method", [QDRIFT, *DEFAULT_CANDIDATES], ids=lambda m: m.label)
    def test_every_method_costs_one_segment(self, method):
        report = gate_count(method, CostQuery(self.PROFILE, 1e-320, 1e-3))
        assert report.bound == 0.0
        if method is QDRIFT:
            assert (report.r, report.gates) == (None, 1)
        else:
            assert (report.r, report.gates) == (1, gates_per_segment(method, 1))
            bound = error_function(method, self.PROFILE, 1e-320)
            assert [bound(2), bound(1000)] == [0.0, 0.0]

    def test_denormal_product(self):
        assert trotter_error_det(1, 1e-10, 1e-320, 3) == 0.0
        # 1e-10 * 1e-310 = 1e-320 is not 0, so the logs run; the bound underflows.
        assert trotter_error_det(1, 1e-10, 1e-310, 1) == 0.0
        assert suzuki_error(1, 1, 1e-10, 1e-310, 1, "random") == 0.0


class TestGateCount:
    def test_first_order_det_frozen(self):
        query = CostQuery(WeightProfile(2, 1.5, 1.0), 1.0, 1e-3)
        report = gate_count(TROTTER_DET, query)
        assert report.r == 2001
        assert report.gates == 2 * 2001 == 4002
        assert report.bound <= 1e-3

    def test_qdrift_delegates_to_exact_count(self):
        query = CostQuery(WeightProfile(2, 1.0, 0.5), 1.0, 1e-3)
        report = gate_count(QDRIFT, query)
        assert report.gates == 2002
        assert report.r is None

    def test_suzuki_k1_count_is_2lr(self):
        query = CostQuery(WeightProfile(3, 2.0, 1.0), 1.0, 1e-3)
        report = gate_count(SUZUKI_DET[1], query)
        assert report.gates == 2 * 3 * report.r

    def test_report_bounds_are_minimal(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            L = int(rng.integers(1, 8))
            lam_max = rng.uniform(0.3, 2.0)
            lam = rng.uniform(lam_max, lam_max * L)
            query = CostQuery(
                WeightProfile(L, lam, lam_max), rng.uniform(0.3, 3.0), 10.0 ** rng.uniform(-4, -1)
            )
            profile = query.profile
            method = DEFAULT_CANDIDATES[rng.integers(0, len(DEFAULT_CANDIDATES))]
            report = gate_count(method, query)
            assert report.bound <= query.eps
            if report.r > 1:
                fn = error_function(method, profile, query.t)
                assert fn(report.r - 1) > query.eps

    def test_report_bound_is_the_value_the_search_evaluated(self, monkeypatch):
        # report.bound is err(report.r) bit for bit, and no bound is
        # evaluated once the search has returned.
        profile = WeightProfile(1000, 300.0, 0.5)
        make, search = trotter.error_function, trotter._smallest_within
        evaluated, at_return = [], []

        def recording_search(bound, *args, **kwargs):
            found = search(lambda r: evaluated.append(r) or bound(r), *args, **kwargs)
            at_return.append(len(evaluated))
            return found

        monkeypatch.setattr(trotter, "_smallest_within", recording_search)
        seen = set()
        for method in DEFAULT_CANDIDATES:
            for t in map(float, np.logspace(-4, 14, 37)):
                for eps in (0.3, 1e-3, 1e-9):
                    evaluated.clear()
                    at_return.clear()
                    (report,) = gate_counts([method], CostQuery(profile, t, eps))
                    assert at_return == [len(evaluated)]
                    if report is None:
                        seen.add(answer_range(None))
                    else:
                        assert report.bound == make(method, profile, t)(report.r)
                        seen.add(answer_range(report.r))
        assert seen == ANSWER_RANGES


class TestClosedForm:
    def test_k1_prefactor_is_4_sqrt_2(self):
        assert abs(suzuki_prefactor(1) - 4 * math.sqrt(2)) <= 1e-12
        assert closed_form_suzuki_count(1, 1, 1.0, 1.0, 1.0) == pytest.approx(
            4 * math.sqrt(2), rel=1e-12
        )

    def test_k2_prefactor(self):
        assert suzuki_b_constant(2) == pytest.approx(1e5 / 6, rel=1e-12)
        assert suzuki_prefactor(2) == pytest.approx(10 * (1e5 / 6) ** 0.25, rel=1e-12)
        assert suzuki_prefactor(2) == pytest.approx(113.6, rel=1e-3)

    def test_printed_constants_mismatch_is_visible(self):
        # k=1 agrees; k=2,3 are known not to match the general formula
        assert PRINTED_NK_CONSTANTS[1] == pytest.approx(suzuki_prefactor(1), rel=1e-12)
        assert PRINTED_NK_CONSTANTS[2] != pytest.approx(suzuki_prefactor(2), rel=0.5)
        assert PRINTED_NK_CONSTANTS[3] != pytest.approx(suzuki_prefactor(3), rel=0.5)

    def test_matches_solver_in_dominance_regime(self):
        # b-term dominated, small exponent grid: closed form within 20%
        for L in (2, 5, 10, 20):
            for t in (1.0, 3.0, 10.0):
                for eps in (1e-3, 1e-4):
                    profile = WeightProfile(L, L * 1.0, 1.0)
                    query = CostQuery(profile, t, eps)
                    report = gate_count(SUZUKI_RANDOM[1], query)
                    r = report.r
                    assert 1.0 * t / r < 0.1, "grid point outside stated regime"
                    a, b = suzuki_ab_oracle(1, L, 1.0, t, r)
                    assert a * a < 2 * b, "a-term unexpectedly dominates"
                    approx = closed_form_suzuki_count(1, L, 1.0, t, eps)
                    assert abs(approx - report.gates) / report.gates < 0.20


class TestBestMethod:
    def test_tiny_time_first_order_wins(self):
        for t in (1e-2, 3e-2, 0.1):
            query = CostQuery(WeightProfile(2, 2.0, 1.0), t, 1e-3)
            assert best_method(query).method.order == 1

    def test_large_time_favors_higher_orders(self):
        winners = []
        for t in (1e-2, 1.0, 1e6, 1e10, 2e13, 1e14):
            query = CostQuery(WeightProfile(2, 2.0, 1.0), t, 1e-3)
            winners.append(best_method(query).method.order)
        # the winning order never decreases with t and reaches the top order
        assert winners == sorted(winners)
        assert winners[0] == 1
        assert winners[-1] == 6

    def test_every_candidate_overflowing_raises(self):
        query = CostQuery(WeightProfile(2, 2.0, 1.0), 1e15, 1e-3)
        with pytest.raises(OverflowError):
            best_method(query)

    def test_single_candidate(self):
        query = CostQuery(WeightProfile(2, 2.0, 1.0), 1.0, 1e-3)
        report = best_method(query, [SUZUKI_DET[2]])
        assert report.method == SUZUKI_DET[2]

    def test_permutation_invariance(self):
        query = CostQuery(WeightProfile(5, 3.0, 1.0), 2.0, 1e-3)
        base = best_method(query)
        for perm in (reversed(DEFAULT_CANDIDATES), DEFAULT_CANDIDATES[4:] + DEFAULT_CANDIDATES[:4]):
            assert best_method(query, tuple(perm)) == base

    def test_tie_prefers_det_before_random(self):
        # at tiny t both first-order variants land at r=1 and L gates
        query = CostQuery(WeightProfile(2, 2.0, 1.0), 1e-2, 1e-3)
        report = best_method(query, [TROTTER_RANDOM, TROTTER_DET])
        assert report.method.variant == "det"


def drawn_profile(L: int, lam_max: float, spread: float) -> WeightProfile:
    """A valid profile: lam from lam_max (spread 0) to L lam_max (spread 1)."""
    return WeightProfile(L, lam_max * (1.0 + spread * (L - 1)), lam_max)


class TestCountCore:
    """trotter._count is the one place a count is made: it gives the reference
    search's answer on the reference bounds, field by field."""

    @settings(max_examples=150, deadline=None)
    @given(
        L=st.integers(1, 10**6),
        lam_max=st.floats(-3, 3).map(lambda e: 10.0**e),
        spread=st.floats(0.0, 1.0),
        t=st.floats(-4, 80).map(lambda e: 10.0**e),
        eps=st.floats(-12, -0.3).map(lambda e: 10.0**e),
    )
    @example(L=10, lam_max=1.0, spread=1.0, t=1e20, eps=1e-3)  # every product formula overflows
    @example(L=10, lam_max=1.0, spread=1.0, t=1e80, eps=1e-3)  # qDRIFT overflows too
    def test_count_equals_the_reference_search(self, L, lam_max, spread, t, eps):
        profile = drawn_profile(L, lam_max, spread)
        for method in cli._ROW_METHODS:
            assert trotter._count(method, profile, t, eps) == reference_count(method, profile, t, eps)

    def test_reports_wrap_the_counts(self):
        query = CostQuery(WeightProfile(2, 2.0, 1.0), 1e15, 1e-3)
        counts = list(trotter._counts(cli._ROW_METHODS, query))
        assert None in counts
        assert gate_counts(cli._ROW_METHODS, query) == [
            None if count is None else CostReport(method, *count) for method, count in zip(cli._ROW_METHODS, counts)
        ]


class TestLogGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        lo_exp=st.floats(-300.0, 300.0),
        decades=st.floats(0.0, 600.0),
        points=st.integers(1, 60),
    )
    @example(lo_exp=-3.0, decades=2.0, points=20)  # pe-grid-b, whose third point numpy's AVX-512 moves
    def test_grid_is_numpys_linspace_raised_by_python(self, lo_exp, decades, points):
        lo, hi = 10.0**lo_exp, 10.0 ** min(lo_exp + decades, 300.0)
        grid = log_grid(lo, hi, points)
        assert len(grid) == points
        assert grid == reference_log_grid(lo, hi, points)
        assert grid[0] == 10.0 ** math.log10(lo)
        if points > 1:
            assert grid[-1] == 10.0 ** math.log10(hi)
        # numpy.logspace may use another power; the bench's check allows a relative 1e-12.
        for got, want in zip(grid, np.logspace(math.log10(lo), math.log10(hi), points).tolist()):
            assert abs(got - want) <= 2 * math.ulp(want)

    def test_no_point_is_empty(self):
        assert log_grid(1.0, 10.0, 0) == []


class TestCrossover:
    PROFILE = WeightProfile(100, 10.0, 1.0)  # lam = lam_max * sqrt(L)

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.integers(1, 10**4),
        lam_max=st.floats(0.01, 10.0),
        spread=st.floats(0.0, 1.0),
        eps=st.floats(-6, -1).map(lambda e: 10.0**e),
        t_min=st.floats(-4, 2).map(lambda e: 10.0**e),
        decades=st.floats(0.5, 14.0),
        points=st.integers(2, 50),
    )
    @example(L=2000, lam_max=0.01, spread=(5.0 / 0.01 - 1) / 1999, eps=1e-3, t_min=1e-3, decades=13.0, points=50)
    def test_scan_equals_the_all_methods_verdict(self, L, lam_max, spread, eps, t_min, decades, points):
        # The scan stops at the first candidate cheaper than qDRIFT; t_star
        # is the one the verdict over all methods gives.
        profile, t_range = drawn_profile(L, lam_max, spread), (t_min, t_min * 10.0**decades)
        expected = reference_crossover_time(profile, eps, t_range, points)
        assert crossover_time(profile, eps, t_range, points) == expected

    def test_crossover_exists_for_sqrt_l_profile(self):
        t_star = crossover_time(self.PROFILE, 1e-3, (1.0, 1e12))
        assert t_star is not None
        assert 1.0 < t_star < 1e12

    def test_speedup_sign_flips_around_t_star(self):
        t_star = crossover_time(self.PROFILE, 1e-3, (1.0, 1e12))
        for t, expect_qdrift_cheaper in ((t_star / 10, True), (10 * t_star, False)):
            query = CostQuery(self.PROFILE, t, 1e-3)
            qd = gate_count(QDRIFT, query).gates
            best = best_method(query).gates
            assert (qd < best) == expect_qdrift_cheaper

    def test_range_without_crossing_returns_none(self):
        assert crossover_time(self.PROFILE, 1e-3, (0.1, 1.0)) is None

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            crossover_time(self.PROFILE, 1e-3, (10.0, 1.0))

    def test_every_method_overflowing_does_not_raise(self):
        # Every product formula overflows from t = 1e20 and qDRIFT at 1e80;
        # qDRIFT already costs more at t = 1, so there is no crossing.
        assert crossover_time(WeightProfile(10, 10.0, 1.0), 1e-3, (1.0, 1e80), points=5) is None

    def test_overflowed_count_is_infinite_cost(self):
        # None is a count that overflowed; qDRIFT's (r, gates, bound) comes first.
        five = (1, 5, 0.0)
        assert qdrift_costs_more([None, five, None])
        assert not qdrift_costs_more([(None, 5, 0.0), None, None])
        assert not qdrift_costs_more([None, None])
        assert not qdrift_costs_more([None])

    def test_gate_counts_mark_overflow_with_none(self):
        query = CostQuery(WeightProfile(2, 2.0, 1.0), 1e15, 1e-3)
        reports = gate_counts((QDRIFT, TROTTER_DET), query)
        assert reports == [gate_count(QDRIFT, query), None]

    def test_known_verdicts_are_not_solved_again(self, monkeypatch):
        verdicts = {}
        for t in log_grid(1.0, 1e12, 50):
            query = CostQuery(self.PROFILE, t, 1e-3)
            verdicts[t] = gate_count(QDRIFT, query).gates > best_method(query).gates
        expected = crossover_time(self.PROFILE, 1e-3, (1.0, 1e12))
        calls = []
        count = trotter._count
        monkeypatch.setattr(trotter, "_count", lambda *args: calls.append(args) or count(*args))
        assert crossover_time(self.PROFILE, 1e-3, (1.0, 1e12), verdicts=verdicts) == expected
        # Only the bisection between two grid times is solved: at most 9 methods per step.
        assert 0 < len(calls) <= 9 * 12


class TestCsvRow:
    """The one CSV writer is the CLI's: cost rows from ``cli._cost_rows``, cells by ``cli._fmt``."""

    @staticmethod
    def csv_line(row) -> str:
        return ",".join(cli._fmt(c) for c in row)

    @staticmethod
    def cost_rows(query):
        return cli._cost_rows(query, list(trotter._counts(cli._ROW_METHODS, query)))

    def test_plain_row_shape(self):
        rows = self.cost_rows(CostQuery(WeightProfile(2, 1.0, 0.5), 1.0, 1e-3))
        assert [len(self.csv_line(row).split(",")) for row in rows] == [11] * 9
        assert len(COST_CSV_HEADER.split(",")) == 11

    def test_huge_counts_serialize_as_log10(self):
        # qDRIFT needs about 2 (lam t)^2 / eps = 2e27 gates, beyond int64
        query = CostQuery(WeightProfile(2, 1e12, 5e11), 1.0, 1e-3)
        report = gate_count(QDRIFT, query)
        line = self.csv_line(self.cost_rows(query)[0])
        assert line.split(",")[4] == f"log10_gates={report.log10_gates:.17g}"
        assert "log10_gates=27" in line
        assert len(line.split(",")) == 11

    def test_eps_above_one_warns(self):
        with pytest.warns(UserWarning) as record:
            CostQuery(WeightProfile(2, 1.0, 0.5), 1.0, 2.0)
        # The warning names the caller's line, not CostQuery's __init__.
        assert record[0].filename == __file__

import math
import sys
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    log_bit_counts,
    log_sum,
    reference_doubling_search,
    reference_optimize_pf,
    repetition_filter,
)
from qdriftlab import phase_estimation as pe
from qdriftlab.hamiltonian import WeightProfile
from qdriftlab.trotter import R_MAX, SUZUKI_RANDOM, CostQuery, gate_count, suzuki_error


class TestBitsM:
    def test_power_of_two_delta(self):
        # log2(2^10) + log2(2) - 2 = 9
        assert pe.bits_m(2**-10, 1.0) == 9

    def test_chemical_accuracy_point(self):
        # ceil(14.288 + 4.954 - 2) = 18
        assert pe.bits_m(5e-5, 1 / 30) == 18

    def test_halving_delta_increments(self):
        for k in range(3, 20):
            assert pe.bits_m(2.0**-(k + 1), 0.25) == pe.bits_m(2.0**-k, 0.25) + 1

    def test_out_of_range_inputs(self):
        with pytest.raises(ValueError):
            pe.bits_m(0.0, 0.5)
        with pytest.raises(ValueError):
            pe.bits_m(1.5, 0.5)
        with pytest.raises(ValueError):
            pe.bits_m(1e-3, 0.0)
        with pytest.raises(ValueError):
            pe.bits_m(1e-3, 1.5)


class TestAllocateEps:
    def test_two_bit_split(self):
        assert pe.allocate_eps(0.06, 2) == pytest.approx([0.02, 0.04], rel=1e-15)

    def test_single_bit_gets_everything(self):
        assert pe.allocate_eps(0.125, 1) == [0.125]

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 20, 30, 40])
    def test_sums_to_total(self, m):
        eps = pe.allocate_eps(0.37, m)
        assert math.fsum(eps) == pytest.approx(0.37, rel=1e-14)

    def test_geometric_doubling(self):
        eps = pe.allocate_eps(1.0, 6)
        for a, b in zip(eps, eps[1:]):
            assert b == pytest.approx(2 * a, rel=1e-12)

    def test_depth_past_the_float_range_overflows(self):
        # 2 (2^m - 1) is inf from m = 1023; an inf denominator would make every eps_j 0.
        assert pe.allocate_eps(1.0, 1022)[-1] == 0.5
        with pytest.raises(OverflowError):
            pe.allocate_eps(1.0, 1023)
        # eps_1 = 1e-300 / (2^100 - 1) underflows to 0: bit 1 would need infinitely many gates.
        with pytest.raises(OverflowError, match="eps_1 underflows to 0"):
            pe.allocate_eps(1e-300, 100)


class TestBitCosts:
    def test_qdrift_unit_case(self):
        assert pe.qdrift_bit_cost(1, math.pi**2) == pytest.approx(4.0, rel=1e-14)

    def test_qdrift_doubling_eps_halves(self):
        assert pe.qdrift_bit_cost(3, 0.2) == pytest.approx(2 * pe.qdrift_bit_cost(3, 0.4), rel=1e-14)

    def test_trotter_unit_case(self):
        got = pe.trotter_bit_cost(1, 2 * math.pi**3, 1, 1.0)
        assert got == pytest.approx(16 * math.sqrt(2), rel=1e-14)

    def test_trotter_l_squared_scaling(self):
        base = pe.trotter_bit_cost(2, 0.1, 1, 0.5)
        assert pe.trotter_bit_cost(2, 0.1, 4, 0.5) == pytest.approx(16 * base, rel=1e-14)

    @pytest.mark.parametrize("m", [3, 8, 18, 25])
    def test_qdrift_sum_matches_geometric_closed_form(self, m):
        eps_tot = 0.013
        eps = pe.allocate_eps(eps_tot, m)
        total = math.fsum(pe.qdrift_bit_cost(j, e) for j, e in enumerate(eps, start=1))
        closed = 4 * math.pi**2 * (2.0**m - 1) ** 2 / eps_tot
        assert total == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("method", pe.METHODS)
    def test_geometric_total_equals_per_bit_sum(self, method):
        # a = b + 1 makes the closed form exact at every depth, not only at large m.
        for eps_tot, L, lam_a in ((0.02, 7, 0.5), (0.4, 1, 1e-3), (1e-6, 300, 20.0)):
            for m in range(1, 61):
                eps = pe.allocate_eps(eps_tot, m)
                if method == "qdrift":
                    costs = [pe.qdrift_bit_cost(j, e) for j, e in enumerate(eps, start=1)]
                else:
                    costs = [pe.trotter_bit_cost(j, e, L, lam_a) for j, e in enumerate(eps, start=1)]
                closed = pe.geometric_total(method, m, eps_tot, L, lam_a)
                assert closed == pytest.approx(math.fsum(costs), rel=1e-12), (eps_tot, m)

    @pytest.mark.parametrize("m", [15, 18, 24])
    def test_trotter_sum_matches_asymptote_at_large_m(self, m):
        eps_tot, L, lam_a = 0.02, 7, 0.5
        eps = pe.allocate_eps(eps_tot, m)
        total = math.fsum(pe.trotter_bit_cost(j, e, L, lam_a) for j, e in enumerate(eps, start=1))
        asym = pe.geometric_total("trotter", m, eps_tot, L, lam_a)
        assert abs(total / asym - 1) < 0.01

    def test_trotter_bit_cost_matches_log_space(self):
        # lam_max_A^3 underflows below 2.8e-103, and 8^j overflows from j = 342.
        log_min, log_max = math.log(sys.float_info.min), math.log(sys.float_info.max)
        checked = 0
        for lam_a in (1e-300, 1e-200, 2e-103, 1e-100, 1e-20, 0.5, 1e50, 1e102, 1e150):
            for j in (1, 2, 10, 100, 300, 341, 342, 400, 700):
                for eps_j in (0.5, 1e-10, 1e-100, 1e-300):
                    for L in (1, 10000):
                        expected = (
                            math.log(8.0) + 2.0 * math.log(L)
                            + 0.5 * (math.log(2.0 * math.pi**3) + 3.0 * math.log(lam_a)
                                     + j * math.log(8.0) - math.log(eps_j))
                        )
                        if not log_min <= expected <= log_max:
                            continue
                        got = pe.trotter_bit_cost(j, eps_j, L, lam_a)
                        assert math.log(got) == pytest.approx(expected, abs=1e-12), (lam_a, j, eps_j, L)
                        checked += 1
        assert checked > 300

    def test_exact_solver_bit_cost_same_scale(self):
        # closed form vs segment solver agree to a modest factor per bit
        for j in (10, 14):
            eps_j = 1e-3
            closed = pe.trotter_bit_cost(j, eps_j, 3, 0.25)
            solved = 2 * solved_bit_report(j, eps_j, 3, 0.25).gates
            assert 0.3 < solved / closed < 3.0

    @pytest.mark.parametrize("L,lam_a", [(1, 0.5), (3, 0.25), (40, 0.01), (1000, 0.001)])
    def test_exact_solver_bit_cost_equals_reference_search(self, L, lam_a):
        # The per-bit count solves the public randomized 2nd-order bound
        # exactly as the doubling/bisection reference does.
        for j in (1, 5, 12, 20):
            for eps_j in (0.1, 1e-4, 1e-9):
                t_j = math.pi * 2.0**j
                r = reference_doubling_search(
                    lambda r: suzuki_error(1, L, lam_a, t_j, r, "random"), eps_j, R_MAX
                )
                report = solved_bit_report(j, eps_j, L, lam_a)
                assert report.r == r
                assert report.gates == 2 * L * r


def solved_bit_report(j, eps_j, L, lam_max_rescaled):
    """Bit j's 2nd-order randomized segments from the segment solver, at t_j = pi 2^j;
    the controlled power costs twice its gates.  The bound reads only L and
    lam_max, and lam = lam_max is a valid profile for any L."""
    profile = WeightProfile(L, lam_max_rescaled, lam_max_rescaled)
    return gate_count(SUZUKI_RANDOM[1], CostQuery(profile, math.pi * 2.0**j, eps_j))


def query_at(P_f, delta, L=1, lam_max_rescaled=1.0):
    """The query with lam = 1 whose delta and lam_max_rescaled are exactly the ones given."""
    return pe.PEQuery(lam=1.0, delta_E=2.0 * delta, P_f=P_f, L=L, lam_max=2.0 * lam_max_rescaled)


class TestOptimizePf:
    def test_qdrift_small_limit_agreement(self):
        for p_total in (1e-3, 1e-2):
            opt = pe.optimize_pf("qdrift", query_at(p_total, 5e-5))
            assert abs(opt.p_f / ((2 / 3) * p_total) - 1) < 0.05

    def test_trotter_small_limit_agreement(self):
        for p_total in (1e-3, 1e-2):
            opt = pe.optimize_pf("trotter", query_at(p_total, 5e-5, L=100, lam_max_rescaled=0.5))
            assert abs(opt.p_f / ((3 / 4) * p_total) - 1) < 0.05

    def test_converges_to_one_percent_at_1e_minus_3(self):
        opt = pe.optimize_pf("qdrift", query_at(1e-3, 5e-5))
        assert abs(opt.p_f / opt.p_f_small_limit - 1) < 0.01
        opt = pe.optimize_pf("trotter", query_at(1e-3, 5e-5, L=10, lam_max_rescaled=0.5))
        assert abs(opt.p_f / opt.p_f_small_limit - 1) < 0.01

    def test_optimum_beats_closed_form_point(self):
        for method, kwargs in (("qdrift", {}), ("trotter", {"L": 50, "lam_max_rescaled": 0.5})):
            opt = pe.optimize_pf(method, query_at(0.05, 5e-5, **kwargs))
            assert opt.total <= opt.total_at_small_limit * (1 + 1e-9)

    def test_constraint_binding(self):
        opt = pe.optimize_pf("qdrift", query_at(0.02, 1e-4))
        assert 0 < opt.p_f < 0.02
        assert opt.p_f + 2 * opt.eps_tot == pytest.approx(0.02, abs=1e-12)

    def test_degenerate_inputs(self):
        # A PEQuery holds 0 < P_f < 1 and 0 < delta <= 1/2 for optimize_pf.
        with pytest.raises(ValueError, match="P_f must be in"):
            query_at(0.0, 1e-4)
        with pytest.raises(ValueError, match="exceeds lam"):
            query_at(0.05, 0.7)
        with pytest.raises(ValueError, match="method must be one of"):
            pe.optimize_pf("other", query_at(0.05, 1e-4))

    @pytest.mark.parametrize("method", pe.METHODS)
    @settings(max_examples=200, deadline=None)
    @given(
        P_f=st.floats(-6, math.log10(0.999)).map(lambda e: 10.0**e),
        delta=st.floats(-9, math.log10(0.5)).map(lambda e: min(10.0**e, 0.5)),
        L=st.integers(1, 10**6),
        lam_max_rescaled=st.floats(-6, 2).map(lambda e: 10.0**e),
    )
    @example(P_f=0.999, delta=0.5, L=1, lam_max_rescaled=1.0)
    @example(P_f=1e-6, delta=1e-9, L=1, lam_max_rescaled=1.0)
    def test_closed_form_matches_golden_section_oracle(
        self, method, P_f, delta, L, lam_max_rescaled
    ):
        query = query_at(P_f, delta, L, lam_max_rescaled)
        opt = pe.optimize_pf(method, query)
        p_oracle = reference_optimize_pf(method, query)
        assert abs(opt.p_f - p_oracle) <= 1e-6 * P_f
        oracle_total = pe._smooth_total(method, p_oracle, query)
        assert opt.total <= oracle_total * (1 + 1e-12)

    @pytest.mark.parametrize("method, limit", [("qdrift", 2 / 3), ("trotter", 3 / 4)])
    def test_share_tends_to_small_pf_limit(self, method, limit):
        # p*/P_f = a/(a+b) - O(P_f), with a coefficient below 0.2 for both methods.
        for p_total in (1e-2, 1e-4, 1e-8, 1e-12):
            opt = pe.optimize_pf(method, query_at(p_total, 5e-5))
            assert abs(opt.p_f / p_total - limit) <= 0.2 * p_total

    def test_accepts_delta_one_half(self):
        # delta = 1/2 is delta_E = lam: 2^m - 1 = (1 - p)/(2p) > 0 for every p < 1.
        for method in pe.METHODS:
            opt = pe.optimize_pf(method, query_at(0.5, 0.5))
            assert 0 < opt.p_f < 0.5
            assert math.isfinite(opt.total)
            plan = pe.build_plan(method, pe.PEQuery(lam=1.0, delta_E=1.0, P_f=0.5))
            assert plan.m >= 1


class TestClosedFormTotals:
    def test_qdrift_fig_value(self):
        q = pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=0.05)
        total = pe.closed_form_total("qdrift", q)
        assert total == pytest.approx(1.064e14, rel=5e-4)

    def test_trotter_fig_value(self):
        q = pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=0.05, L=100, lam_max=1.0)
        total = pe.closed_form_total("trotter", q)
        assert total == pytest.approx(2.76e14, rel=5e-4)

    @pytest.mark.parametrize(
        "lam, delta_E, lam_max, qdrift, trotter",
        [
            # lam^2 and delta_E^2 underflow to 0: the product form divides by 0.
            (1e-300, 1e-300, 1e-300, 133.0 / 0.5**3, 69.0 / 0.5**2),
            # lam^2 raises OverflowError, lam / delta_E is 1e100; the trotter
            # product form fits and is kept.
            (1e300, 1e200, 1.0, 133.0 * 1e200 / 0.5**3, 69.0 / (1e200**1.5 * 0.5**2)),
            # lam_max^1.5 underflows to 0 without raising; the ratio is 1e-200.
            (1e-100, 1e-100, 1e-300, 133.0 * 1e-100**2 / (1e-100**2 * 0.5**3), 69.0 * 1e-200**1.5 / 0.5**2),
            # lam^2 and delta_E^2 are subnormal: the product form would read
            # 1817.56, 0.1% below the ratio form's 1819.50.
            (1.7e-160, 1.3e-160, 1.0, 133.0 * (1.7e-160 / 1.3e-160) ** 2 / 0.5**3,
             69.0 / (1.3e-160**1.5 * 0.5**2)),
        ],
        ids=["underflow", "overflow", "zero-power", "subnormal-power"],
    )
    def test_powers_out_of_range_use_the_ratio(self, lam, delta_E, lam_max, qdrift, trotter):
        q = pe.PEQuery(lam=lam, delta_E=delta_E, P_f=0.5, lam_max=lam_max)
        assert pe.closed_form_total("qdrift", q) == qdrift
        assert pe.closed_form_total("trotter", q) == trotter

    def test_ratio_overflow_names_the_query(self):
        q = pe.PEQuery(lam=1e300, delta_E=1e-10, P_f=0.5)
        with pytest.raises(OverflowError) as excinfo:
            pe.closed_form_total("qdrift", q)
        assert str(excinfo.value) == "phase-estimation budget overflows a float (delta_E=1e-10, P_f=0.5)"

    def test_qdrift_pipeline_tracks_asymptote(self):
        for p_total in (0.05, 0.02, 0.01):
            q = pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=p_total)
            ratio = pe.optimize_pf("qdrift", q).total / pe.closed_form_total("qdrift", q)
            assert abs(ratio - 1) < 0.15

    def test_trotter_pipeline_tracks_asymptote_up_to_sqrt2(self):
        # The printed small-P_f constant (69) sits a factor sqrt(2) below the
        # asymptote of the per-bit expressions it was derived from; the
        # pipeline is consistent with the per-bit side.
        for p_total in (0.05, 0.02, 0.01):
            q = pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=p_total, L=100, lam_max=1.0)
            ratio = pe.optimize_pf("trotter", q).total / (
                math.sqrt(2) * pe.closed_form_total("trotter", q)
            )
            assert abs(ratio - 1) < 0.15


# The two entry points that cost a query at its optimized failure share.
BOTH_PLANS = (pe.build_plan, pe.optimize_pf)


class TestPlan:
    def test_invariants(self):
        q = pe.PEQuery(lam=2.0, delta_E=1e-4, P_f=0.03, L=20, lam_max=0.8)
        for method in pe.METHODS:
            plan = pe.build_plan(method, q)
            assert math.fsum(r.eps_j for r in plan.rows) == pytest.approx(
                plan.eps_tot, abs=1e-12
            )
            assert plan.p_f + 2 * plan.eps_tot == pytest.approx(q.P_f, abs=1e-12)
            assert len(plan.rows) == plan.m
            for a, b in zip(plan.rows, plan.rows[1:]):
                assert b.t_j == pytest.approx(2 * a.t_j, rel=1e-12)
            assert plan.rows[0].t_j == pytest.approx(2 * math.pi, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        lam=st.floats(-3, 3).map(lambda e: 10.0**e),
        delta=st.floats(-120, -0.31).map(lambda e: 10.0**e),
        P_f=st.floats(-8, -0.01).map(lambda e: 10.0**e),
        L=st.integers(1, 10**6),
        lam_a=st.floats(-150, 150).map(lambda e: 10.0**e),
    )
    @example(lam=1.0, delta=1e-110, P_f=0.5, L=3, lam_a=1e-30)  # m = 367: 8.0**j overflows from j = 342
    def test_rows_are_the_per_bit_costs(self, lam, delta, P_f, L, lam_a):
        # build_plan computes trotter_bit_cost's loop invariants once; the
        # per-bit functions stay the reference, bit for bit.
        query = pe.PEQuery(lam, 2.0 * lam * delta, P_f, L, 2.0 * lam * lam_a)
        for method in pe.METHODS:
            try:
                plan = pe.build_plan(method, query)
            except OverflowError:
                continue
            assert [row.eps_j for row in plan.rows] == pe.allocate_eps(plan.eps_tot, plan.m)
            if method == "qdrift":
                expected = [pe.qdrift_bit_cost(row.j, row.eps_j) for row in plan.rows]
            else:
                expected = [pe.trotter_bit_cost(row.j, row.eps_j, L, query.lam_max_rescaled) for row in plan.rows]
            assert [row.gates for row in plan.rows] == expected

    def test_qdrift_plan_total_matches_geometric_exactly(self):
        q = pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=0.05)
        plan = pe.build_plan("qdrift", q)
        assert plan.total == pytest.approx(pe.geometric_total("qdrift", plan.m, plan.eps_tot), rel=1e-12)

    def test_trotter_plan_total_matches_geometric_at_large_m(self):
        q = pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=0.05, L=100, lam_max=1.0)
        plan = pe.build_plan("trotter", q)
        assert plan.m >= 15
        geometric = pe.geometric_total("trotter", plan.m, plan.eps_tot, q.L, q.lam_max_rescaled)
        assert plan.total == pytest.approx(geometric, rel=1e-12)

    def test_explicit_pf_override(self):
        q = pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=0.05)
        plan = pe.build_plan("qdrift", q, p_f=1 / 30)
        assert plan.m == 18
        assert plan.eps_tot == pytest.approx((0.05 - 1 / 30) / 2, rel=1e-14)

    def test_totals_decrease_in_delta_e_and_pf(self):
        for method in pe.METHODS:
            kwargs = {"L": 10, "lam_max": 1.0} if method == "trotter" else {}
            t_small = pe.optimize_pf(method, pe.PEQuery(1.0, 1e-5, 0.05, **kwargs)).total
            t_large = pe.optimize_pf(method, pe.PEQuery(1.0, 1e-4, 0.05, **kwargs)).total
            assert t_small > t_large
            t_strict = pe.optimize_pf(method, pe.PEQuery(1.0, 1e-4, 0.01, **kwargs)).total
            t_loose = pe.optimize_pf(method, pe.PEQuery(1.0, 1e-4, 0.05, **kwargs)).total
            assert t_strict > t_loose

    def test_exact_solver_plan(self):
        q = pe.PEQuery(lam=1.0, delta_E=1e-3, P_f=0.05, L=3, lam_max=1.0)
        closed = pe.build_plan("trotter", q)
        exact = sum(2 * solved_bit_report(r.j, r.eps_j, q.L, q.lam_max_rescaled).gates for r in closed.rows)
        assert 0.2 < exact / closed.total < 5.0

    @pytest.mark.parametrize(
        "methods, query, plans",
        [
            # The trotter total, about 9.5e304, fits (test_trotter_totals_in_range).
            (("qdrift",), pe.PEQuery(lam=1.0, delta_E=1e-200, P_f=0.05), BOTH_PLANS),
            (pe.METHODS, pe.PEQuery(lam=1e300, delta_E=1e-10, P_f=0.5, L=10, lam_max=1e300), BOTH_PLANS),
            # The product under the root rounds to inf, and so does the total,
            # about 1.2e402 in log space.
            (("trotter",), pe.PEQuery(lam=1.0, delta_E=1e-200, P_f=0.5, lam_max=1e66), BOTH_PLANS),
            # The continuous depth rounds to inf.
            (pe.METHODS, pe.PEQuery(lam=1.0, delta_E=1e-308, P_f=0.5), BOTH_PLANS),
            (pe.METHODS, pe.PEQuery(lam=1.0, delta_E=1e-300, P_f=0.5), BOTH_PLANS),
            # The plan's depth is m = 1023, where 2 (2^m - 1) rounds to inf;
            # the trotter continuous-depth total, about 1.6e89, fits.
            (("trotter",), pe.PEQuery(lam=1.0, delta_E=2.5e-308, P_f=0.5, lam_max=1e-250), (pe.build_plan,)),
            (
                pe.METHODS,
                pe.PEQuery(lam=1.0, delta_E=2.5e-308, P_f=0.5, lam_max=1e-250),
                (partial(pe.build_plan, p_f=0.3),),
            ),
            # eps_tot = (P_f - p_f) / 2 rounds to 0 at the optimal share.
            (pe.METHODS, pe.PEQuery(lam=1.6e-198, delta_E=5.5e-273, P_f=1.5e-323, lam_max=2.2e253), BOTH_PLANS),
        ],
        ids=[
            "tiny-delta-e",
            "huge-lambda",
            "infinite-product",
            "infinite-depth",
            "delta-e-1e-300",
            "depth-1023",
            "depth-1023-given-pf",
            "subnormal-pf",
        ],
    )
    def test_budget_overflow_names_the_query(self, methods, query, plans):
        message = (
            f"phase-estimation budget overflows a float (delta_E={query.delta_E}, P_f={query.P_f})"
        )
        for method in methods:
            for plan in plans:
                with pytest.raises(OverflowError) as excinfo:
                    plan(method, query)
                assert str(excinfo.value) == message

    def test_a_plan_just_below_the_float_ceiling_fits(self):
        # The continuous-depth totals at the same share overflow, so the plan
        # must not depend on them.
        query = pe.PEQuery(1.0, 9.97957073039286e-153, 0.21295128612232445, 2192, 4.105338743489765e-195)
        plan = pe.build_plan("qdrift", query)
        assert (plan.m, plan.total) == (507, 1.7970783733701548e308)
        with pytest.raises(OverflowError):
            pe.optimize_pf("qdrift", query)

    def test_plans_take_the_closed_form_share_alone(self, monkeypatch):
        queries = [pe.PEQuery(1.0, 1e-4, 0.05, 100, 0.5), pe.PEQuery(2.0, 1e-9, 0.9, 3, 2.0)]
        shares = [pe.optimize_pf(method, q).p_f for q in queries for method in pe.METHODS]
        monkeypatch.setattr(pe, "_smooth_total", mock.Mock(side_effect=AssertionError("smooth total")))
        assert [pe.build_plan(method, q).p_f for q in queries for method in pe.METHODS] == shares

    @pytest.mark.parametrize("m, eps_tot", [(600, 1e-300), (2000, 1e-3)], ids=["infinite-sum", "huge-m"])
    def test_geometric_total_overflow_names_its_arguments(self, m, eps_tot):
        with pytest.raises(OverflowError) as excinfo:
            pe.geometric_total("qdrift", m, eps_tot)
        assert str(excinfo.value) == (
            f"geometric total overflows a float (method='qdrift', m={m}, eps_tot={eps_tot})"
        )

    @pytest.mark.parametrize(
        "query",
        [
            # 8^j and the product under the root overflow; the total is about 9.5e304.
            pe.PEQuery(lam=1.0, delta_E=1e-200, P_f=0.05),
            # The product under the root rounds to inf; the total is about 1.5e252.
            pe.PEQuery(lam=1.0, delta_E=1e-100, P_f=0.5, lam_max=1e66),
            # lam_max_A^3 underflows; the totals are about 1.5e-297 and 3.1e-298.
            pe.PEQuery(lam=1e300, delta_E=1e200, P_f=0.5),
            pe.PEQuery(lam=1e-100, delta_E=1e-100, P_f=0.5, lam_max=1e-300),
        ],
        ids=["tiny-delta-e", "infinite-product", "tiny-lam-max", "tiny-lam-max-b"],
    )
    def test_trotter_totals_in_range(self, query):
        plan = pe.build_plan("trotter", query)
        log_lam_a = math.log(query.lam_max) - math.log(2.0 * query.lam)
        expected = log_sum(log_bit_counts("trotter", plan.m, plan.eps_tot, query.L, log_lam_a))
        assert math.log(plan.total) == pytest.approx(expected, abs=1e-12)


class TestRepetitionFilter:
    def test_feasible_case(self):
        verdict = repetition_filter(0.5, 0.05, 100)
        assert verdict.feasible
        assert verdict.threshold == pytest.approx(0.11, rel=1e-12)

    def test_infeasible_when_overlap_too_small(self):
        verdict = repetition_filter(0.10, 0.05, 10**6)
        assert not verdict.feasible
        assert verdict.min_repetitions is None

    def test_minimal_repetitions(self):
        assert repetition_filter(0.5, 0.05, 1).min_repetitions == 3

    def test_minimal_repetitions_boundary(self):
        # margin exactly 0.5 requires M > 2, so 3
        assert repetition_filter(0.6, 0.05, 1).min_repetitions == 3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            repetition_filter(0.0, 0.05, 10)
        with pytest.raises(ValueError):
            repetition_filter(0.5, 0.05, 0)


class TestSpeedup:
    def test_closed_ratio_algebraic_identity(self):
        q = pe.PEQuery(lam=1.3, delta_E=1e-4, P_f=0.02, L=40, lam_max=0.9)
        expected = (
            (pe.TROTTER_TOTAL_CONSTANT / pe.QDRIFT_TOTAL_CONSTANT)
            * q.L**2
            * q.lam_max**1.5
            * math.sqrt(q.delta_E)
            * q.P_f
            / q.lam**2
        )
        assert pe.pe_speedup(q).closed_ratio == pytest.approx(expected, rel=1e-12)

    def test_speedup_vanishes_as_pf_decreases(self):
        # large-L synthetic profile: advantage crosses 1 in the stated decade
        pf_grid = np.logspace(-6, -2, 40)
        ratios = [
            pe.pe_speedup(pe.PEQuery(1.0, 1e-4, float(p), L=1000, lam_max=1.0)).pipeline_ratio
            for p in pf_grid
        ]
        assert ratios[0] < 1 < ratios[-1]
        crossings = [
            (pf_grid[i], pf_grid[i + 1])
            for i in range(len(ratios) - 1)
            if ratios[i] < 1 <= ratios[i + 1]
        ]
        assert len(crossings) == 1
        lo, hi = crossings[0]
        assert 1e-5 < lo < hi < 1e-3


class TestQueryValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"lam": math.inf}, "lam must be finite and > 0, got inf"),
            ({"lam": math.nan}, "lam must be finite and > 0, got nan"),
            ({"lam": 0.0}, "lam must be finite and > 0, got 0.0"),
            ({"delta_E": math.nan}, "delta_E must be finite and > 0, got nan"),
            ({"delta_E": -1e-4}, "delta_E must be finite and > 0, got -0.0001"),
            ({"lam_max": math.nan}, "lam_max must be finite and > 0, got nan"),
            ({"lam_max": math.inf}, "lam_max must be finite and > 0, got inf"),
            ({"lam_max": 0.0}, "lam_max must be finite and > 0, got 0.0"),
            ({"L": 0}, "L must be >= 1, got 0"),
            ({"P_f": math.nan}, "P_f must be in (0, 1), got nan"),
            # The rescaled delta_E / (2 lam) or lam_max / (2 lam) underflows to 0.
            (
                {"lam": 1e300, "delta_E": 1e-300},
                "delta_E / (2 lam) is 0 in floating point (delta_E=1e-300, lam=1e+300)",
            ),
            (
                {"lam": 1e300, "delta_E": 1e290, "lam_max": 1e-300},
                "lam_max / (2 lam) is 0 in floating point (lam_max=1e-300, lam=1e+300)",
            ),
            # 2 lam overflows to inf, so delta_E / (2 lam) reads 0 although it is 0.5.
            (
                {"lam": 1e308, "delta_E": 1e308},
                "delta_E / (2 lam) is 0 in floating point (delta_E=1e+308, lam=1e+308)",
            ),
        ],
    )
    def test_rejects_non_finite_or_non_positive(self, kwargs, message):
        args = {"lam": 1.0, "delta_E": 1e-4, "P_f": 0.05, "L": 10, "lam_max": 0.5, **kwargs}
        with pytest.raises(ValueError) as excinfo:
            pe.PEQuery(**args)
        assert str(excinfo.value) == message

    def test_non_finite_lam_max_never_reaches_a_plan(self):
        for lam_max in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lam_max"):
                pe.build_plan("trotter", pe.PEQuery(1.0, 1e-3, 0.05, L=3, lam_max=lam_max))

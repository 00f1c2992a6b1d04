"""No NaN anywhere: every bound and count is a number in [0, inf] or raises
the documented OverflowError, and no bound rises between two probes more
than a relative 1e-11 apart (the margin the segment search relies on).

The ranges are t in [0, float max], Lambda and lambda in [5e-324, float
max] and L up to 2**62, with segment probes up to 2**63 and qDRIFT gate
probes up to 2**512, the two search limits.
"""

import math
import sys

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdriftlab import phase_estimation as pe
from qdriftlab.hamiltonian import WeightProfile
from qdriftlab.trotter import (
    _MARGIN,
    _N_LIMIT,
    DEFAULT_CANDIDATES,
    R_MAX,
    error_function,
    gate_count_exact,
    segment_error_bound,
    suzuki_error,
    total_error_bound,
    trotter_error_det,
    trotter_error_random,
)

FLOAT_MAX = sys.float_info.max
TIMES = st.floats(0.0, FLOAT_MAX)
WEIGHTS = st.floats(5e-324, FLOAT_MAX)
TERMS = st.integers(1, 2**62)
PRECISIONS = st.floats(5e-324, FLOAT_MAX)
SEGMENT_PROBES = st.lists(st.integers(1, R_MAX), min_size=2, max_size=6)
GATE_PROBES = st.lists(st.integers(1, _N_LIMIT), min_size=2, max_size=6)


def documented(fn, *args):
    """fn(*args), or None where it raises the documented OverflowError."""
    try:
        return fn(*args)
    except OverflowError:
        return None


def assert_number(value) -> None:
    # NaN fails both comparisons.
    assert value is None or 0.0 <= value <= math.inf, value


def assert_sound(values: dict) -> None:
    """Each value is a number, and none rises from one probe to a probe more
    than a relative 1/_MARGIN = 1e-11 above it."""
    probes = sorted(values)
    for n in probes:
        assert_number(values[n])
    for i, low in enumerate(probes):
        for high in probes[i + 1:]:
            if (high - low) * _MARGIN > low and None not in (values[low], values[high]):
                assert values[high] <= values[low], (low, high, values[low], values[high])


def public_bound(method, L: int, lam_max: float, t: float, r: int) -> float:
    if method.family == "trotter":
        bound = trotter_error_det if method.variant == "det" else trotter_error_random
        return bound(L, lam_max, t, r)
    return suzuki_error(method.k, L, lam_max, t, r, method.variant)


@settings(max_examples=300, deadline=None)
@given(L=TERMS, lam_max=WEIGHTS, t=TIMES, rs=SEGMENT_PROBES, eps=PRECISIONS)
@example(L=10**12, lam_max=1.7e308, t=0.0, rs=[1, 2**62], eps=1e-3)
@example(L=1, lam_max=1.7e308, t=1e-300, rs=[1, 2, 2**63], eps=5e-324)
def test_product_formula_bounds_are_numbers_that_do_not_rise(L, lam_max, t, rs, eps):
    for method in DEFAULT_CANDIDATES:
        err = error_function(method, WeightProfile(L, lam_max, lam_max), t)
        assert_number(err.start(eps))
        assert_sound({r: err(r) for r in rs})
        assert_sound({r: public_bound(method, L, lam_max, t, r) for r in rs})


@settings(max_examples=300, deadline=None)
@given(lam=WEIGHTS, t=TIMES, ns=GATE_PROBES, eps=st.lists(PRECISIONS, min_size=2, max_size=4))
# 2.0 * lam overflows, and inf * 0.0 would be nan.
@example(lam=1.7e308, t=0.0, ns=[1, 10], eps=[1e-3, 0.5])
# The segment bound is subnormal (1e-323 at both), so n times it rose with n.
@example(lam=1.0, t=5.206e-157, ns=[235_479, 260_524], eps=[1e-3, 0.5])
def test_qdrift_bounds_and_counts_are_numbers_that_do_not_rise(lam, t, ns, eps):
    assert_sound({n: segment_error_bound(lam, t, n) for n in ns})
    assert_sound({n: total_error_bound(lam, t, n) for n in ns})
    if t > 0:
        # A looser eps never needs more gates.
        counts = [documented(gate_count_exact, lam, t, e) for e in sorted(eps, reverse=True)]
        for n in counts:
            assert n is None or 1 <= n <= _N_LIMIT, n
        present = [n for n in counts if n is not None]
        assert present == sorted(present)


@settings(max_examples=300, deadline=None)
@given(
    lam=WEIGHTS,
    precision=st.floats(5e-324, 1.0),
    P_f=st.floats(5e-324, 1.0, exclude_max=True),
    L=TERMS,
    lam_max=WEIGHTS,
)
def test_phase_estimation_totals_are_numbers(lam, precision, P_f, L, lam_max):
    # delta_E = precision * lam <= lam; PEQuery rejects a delta_E or lam_max
    # that is 0 against 2 lam in floating point.
    try:
        query = pe.PEQuery(lam, precision * lam, P_f, L, lam_max)
    except ValueError:
        assume(False)
    for method in pe.METHODS:
        plan = documented(pe.build_plan, method, query)
        if plan is not None:
            assert_number(plan.total)
            assert_number(documented(pe.geometric_total, method, plan.m, plan.eps_tot, L, query.lam_max_rescaled))
        optimum = documented(pe.optimize_pf, method, query)
        if optimum is not None:
            assert_number(optimum.total)
            assert_number(optimum.total_at_small_limit)
        assert_number(documented(pe.closed_form_total, method, query))

"""Phase-estimation gate budgets for the randomized compiler and 2nd-order
random Trotter.

The model rescales H to A = (H/lam + 1)/2, which pins lam_A = 1/2 and
lam_max_A = lam_max / (2 lam).  Estimating A's eigenphases to delta =
delta_E / (2 lam) with intrinsic failure share p_f needs

    m = ceil(log2(1/delta) + log2(1/p_f + 1) - 2)

controlled powers with evolution times t_j = pi * 2^j.  The compilation
error budget eps_tot = (P_f - p_f) / 2 splits optimally as
eps_j = eps_tot * 2^j / (2 (2^m - 1)), and the controlled gate count of
bit j (factor 2 from expanding each controlled rotation) is

    N(j) = C (s 2^j)^a / eps_j^b, with
    qdrift:   C = pi^2,               s = 1,          (a, b) = (2, 1);
    trotter:  C = 8 L^2 sqrt(2 pi^3),  s = lam_max_A,  (a, b) = (3/2, 1/2).

Both methods have a = b + 1, so the sum over bits 1..m is exactly
C (2 y s)^a / eps_tot^b with y = 2^m - 1.  Per-bit plans keep m integral.
The failure share p_f minimizes the same total at the continuous depth
y = (1/p_f + 1) / (4 delta) - 1, whose one stationary point is solved in
closed form (``optimize_pf``); the 133 / 69 constants are its small-P_f
asymptotes, used only as cross-checks.
"""

from __future__ import annotations

import contextlib
import math
import sys
from typing import NamedTuple

from .trotter import _check_positive
from .weights import Record

METHODS = ("qdrift", "trotter")

# Rounded small-P_f total-count constants.
QDRIFT_TOTAL_CONSTANT = 133.0
TROTTER_TOTAL_CONSTANT = 69.0
# The model's exponents (a, b); the small-P_f optimal failure share is
# a / (a + b) of P_f.
_TOTAL_EXPONENTS = {"qdrift": (2.0, 1.0), "trotter": (1.5, 0.5)}


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def _model_count(method: str, x: float, eps: float, L: int, lam_max_rescaled: float) -> float:
    """C (s x)^a / eps^b: bit j's count at x = 2^j and eps = eps_j, and the sum
    over bits 1..m at x = 2 (2^m - 1) and eps = eps_tot.  Written as
    (C^(1/a) s x / eps^(b/a))^a, so no step overflows or underflows unless
    the count does."""
    a, b = _TOTAL_EXPONENTS[method]
    if method == "qdrift":
        c, s = math.pi**2, 1.0
    else:
        c, s = 8.0 * L**2 * math.sqrt(2.0 * math.pi**3), lam_max_rescaled
    return (c ** (1.0 / a) * (s * x) / eps ** (b / a)) ** a


class PEQuery(Record):
    """Inputs for one budget: aggregates, energy precision, failure probability."""

    __slots__ = ("lam", "delta_E", "P_f", "L", "lam_max")

    def __init__(self, lam: float, delta_E: float, P_f: float, L: int = 1, lam_max: float = 1.0):
        _check_positive(lam, "lam")
        _check_positive(delta_E, "delta_E")
        if delta_E > lam:
            raise ValueError(f"delta_E={delta_E} exceeds lam={lam}")
        if not (0 < P_f < 1):
            raise ValueError(f"P_f must be in (0, 1), got {P_f}")
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        _check_positive(lam_max, "lam_max")
        for name, value in (("delta_E", delta_E), ("lam_max", lam_max)):
            if value / (2.0 * lam) == 0.0:
                raise ValueError(f"{name} / (2 lam) is 0 in floating point ({name}={value}, lam={lam})")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "delta_E", delta_E)
        object.__setattr__(self, "P_f", P_f)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "lam_max", lam_max)

    @property
    def delta(self) -> float:
        """Phase precision on the rescaled operator: delta_E / (2 lam)."""
        return self.delta_E / (2.0 * self.lam)

    @property
    def lam_max_rescaled(self) -> float:
        """lam_max_A = lam_max / (2 lam)."""
        return self.lam_max / (2.0 * self.lam)


def bits_m(delta: float, p_f: float) -> int:
    """Control-unitary count m = ceil(log2(1/delta) + log2(1/p_f + 1) - 2)."""
    if not (0 < delta < 1):
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")
    if not (0 < p_f <= 1):
        raise ValueError(f"p_f must be in (0, 1], got {p_f!r}")
    value = math.log2(1.0 / delta) + math.log2(1.0 / p_f + 1.0) - 2.0
    return max(1, math.ceil(value))


def allocate_eps(eps_tot: float, m: int) -> list[float]:
    """Optimal geometric split eps_j = eps_tot * 2^j / (2 (2^m - 1)), j = 1..m.

    Raises OverflowError where 2 (2^m - 1) does not fit in a float (m >= 1023)
    or eps_1 underflows to 0, so that bit 1 would need infinitely many gates.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (eps_tot > 0):
        raise ValueError(f"eps_tot must be > 0, got {eps_tot!r}")
    denom = 2.0 * (2.0**m - 1.0)
    if denom == math.inf:
        raise OverflowError(f"2 (2^m - 1) overflows a float (m={m})")
    if eps_tot * 2.0 / denom == 0.0:
        raise OverflowError(f"eps_1 underflows to 0 (eps_tot={eps_tot}, m={m})")
    return [eps_tot * 2.0**j / denom for j in range(1, m + 1)]


def qdrift_bit_cost(j: int, eps_j: float) -> float:
    """Controlled-power gate count 4^j pi^2 / eps_j for bit j."""
    if j < 1:
        raise ValueError(f"bit index j must be >= 1, got {j}")
    if not (eps_j > 0):
        raise ValueError(f"eps_j must be > 0, got {eps_j!r}")
    return 4.0**j * math.pi**2 / eps_j


def trotter_bit_cost(j: int, eps_j: float, L: int, lam_max_rescaled: float) -> float:
    """Controlled-power count 8 L^2 sqrt(2 pi^3 lam_max_A^3 8^j / eps_j) for bit j.
    Where lam_max_A^3 is not a normal float or the count is not finite, the
    model's C (lam_max_A 2^j)^1.5 / sqrt(eps_j) replaces that expression."""
    if j < 1:
        raise ValueError(f"bit index j must be >= 1, got {j}")
    if not (eps_j > 0 and lam_max_rescaled > 0 and L >= 1):
        raise ValueError("eps_j and lam_max_rescaled must be > 0 and L >= 1")
    try:
        cube = lam_max_rescaled**3
        if cube >= sys.float_info.min:
            gates = 8.0 * L**2 * math.sqrt(2.0 * math.pi**3 * cube * 8.0**j / eps_j)
            if gates < math.inf:
                return gates
    except OverflowError:
        pass
    return _model_count("trotter", 2.0**j, eps_j, L, lam_max_rescaled)


def geometric_total(
    method: str, m: int, eps_tot: float, L: int = 1, lam_max_rescaled: float = 1.0
) -> float:
    """Exact sum of the per-bit counts over bits 1..m under ``allocate_eps``:
    C (2 (2^m - 1) s)^a / eps_tot^b.  A sum that does not fit in a float
    raises an OverflowError that names the arguments."""
    _check_method(method)
    with contextlib.suppress(OverflowError):
        total = _model_count(method, 2.0 * (2.0**m - 1.0), eps_tot, L, lam_max_rescaled)
        if total < math.inf:
            return total
    raise OverflowError(f"geometric total overflows a float (method={method!r}, m={m}, eps_tot={eps_tot})")


class BitRow(NamedTuple):
    j: int
    t_j: float
    eps_j: float
    gates: float


class PEPlan(Record):
    """Explicit per-bit budget: rows and their sum."""

    __slots__ = ("method", "p_f", "eps_tot", "m", "rows", "total")

    def __init__(self, method: str, p_f: float, eps_tot: float, m: int, rows: tuple[BitRow, ...], total: float):
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "p_f", p_f)
        object.__setattr__(self, "eps_tot", eps_tot)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "total", total)


def _smooth_total(method: str, p_f: float, query: PEQuery) -> float:
    """The model's total at the continuous depth y = (1/p_f + 1) / (4 delta) - 1,
    which is > 0 for every p_f < 1 when 0 < delta <= 1/2."""
    y = (1.0 / p_f + 1.0) / (4.0 * query.delta) - 1.0
    eps_tot = (query.P_f - p_f) / 2.0
    with contextlib.suppress(OverflowError, ZeroDivisionError):  # eps_tot 0 at a subnormal P_f
        total = _model_count(method, 2.0 * y, eps_tot, query.L, query.lam_max_rescaled)
        if total < math.inf:
            return total
    raise _budget_overflow(query)


class PfOptimum(Record):
    """Optimal failure-share split, with the small-P_f asymptote for comparison.

    p_f is the closed-form minimizer of the continuous-depth total (see
    ``optimize_pf``), eps_tot = (P_f - p_f) / 2 and total is the continuous-
    depth total there; p_f_small_limit is 2/3 P_f (qdrift) or 3/4 P_f
    (trotter), and total_at_small_limit the total at that share.
    """

    __slots__ = ("method", "p_f", "eps_tot", "total", "p_f_small_limit", "total_at_small_limit")

    def __init__(
        self, method: str, p_f: float, eps_tot: float, total: float, p_f_small_limit: float, total_at_small_limit: float
    ):
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "p_f", p_f)
        object.__setattr__(self, "eps_tot", eps_tot)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "p_f_small_limit", p_f_small_limit)
        object.__setattr__(self, "total_at_small_limit", total_at_small_limit)


def _optimal_share(method: str, query: PEQuery) -> float:
    """The closed-form minimizer p* of ``optimize_pf``."""
    a, b = _TOTAL_EXPONENTS[method]
    P_f, c = query.P_f, 1.0 - 4.0 * query.delta
    return 2.0 * a * P_f / ((a + b) + math.sqrt((a + b) ** 2 + 4.0 * a * b * c * P_f))


def optimize_pf(method: str, query: PEQuery) -> PfOptimum:
    """Minimize the continuous-depth total over p_f in (0, P_f), in closed form.

    With eps_tot = (P_f - p) / 2 and y = (1 + c p) / (4 delta p), c = 1 - 4
    delta, the model's total is a constant times y^a / eps_tot^b.  Setting
    d log(total) / dp = 0 gives

        b c p^2 + (a + b) p - a P_f = 0.

    The left side is -a P_f < 0 at p = 0 and b P_f (1 + c P_f) > 0 at
    p = P_f, and the total grows without bound at both ends, so the
    quadratic's one root in (0, P_f) is the minimum.  Its cancellation-free
    form is

        p* = 2 a P_f / ((a + b) + sqrt((a + b)^2 + 4 a b c P_f)),

    which tends to a / (a + b) P_f (2/3 and 3/4) as P_f -> 0.  It holds for
    the 0 < delta <= 1/2 of every query, where c >= -1 keeps 1 + c p > 0.
    A total that does not fit in a float raises ``build_plan``'s OverflowError.
    """
    _check_method(method)
    a, b = _TOTAL_EXPONENTS[method]
    p_star = _optimal_share(method, query)
    p_small = a / (a + b) * query.P_f
    return PfOptimum(
        method=method,
        p_f=p_star,
        eps_tot=(query.P_f - p_star) / 2.0,
        total=_smooth_total(method, p_star, query),
        p_f_small_limit=p_small,
        total_at_small_limit=_smooth_total(method, p_small, query),
    )


def build_plan(method: str, query: PEQuery, p_f: float | None = None) -> PEPlan:
    """Explicit per-bit plan at integral depth m.

    With p_f omitted, the optimized failure share is used.  A budget that
    does not fit in a float raises one OverflowError that names the query.
    """
    _check_method(method)
    if p_f is None:
        p_f = _optimal_share(method, query)
    elif not (0 < p_f < query.P_f):
        raise ValueError(f"p_f must be in (0, P_f), got {p_f!r}")
    eps_tot = (query.P_f - p_f) / 2.0
    if eps_tot <= 0.0:  # at a subnormal P_f, (P_f - p_f) / 2 can round to 0
        raise _budget_overflow(query)
    rows = []
    try:
        m = bits_m(query.delta, p_f)
        for j, eps_j in enumerate(allocate_eps(eps_tot, m), start=1):
            if method == "qdrift":
                gates = qdrift_bit_cost(j, eps_j)
            else:
                gates = trotter_bit_cost(j, eps_j, query.L, query.lam_max_rescaled)
            rows.append(BitRow(j, math.pi * 2.0**j, eps_j, gates))
        total = math.fsum(r.gates for r in rows)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise _budget_overflow(query)
    return PEPlan(
        method=method,
        p_f=p_f,
        eps_tot=eps_tot,
        m=m,
        rows=tuple(rows),
        total=total,
    )


def closed_form_total(method: str, query: PEQuery) -> float:
    """Small-P_f asymptotes: 133 lam^2 / (delta_E^2 P_f^3) and
    69 L^2 lam_max^(3/2) / (delta_E^(3/2) P_f^2).  Approximate by construction.
    Where x^a or delta_E^a P_f^b is not a normal float, or the total is 0 or
    not finite, the ratio (x / delta_E)^a replaces x^a / delta_E^a."""
    _check_method(method)
    if method == "qdrift":
        c, x, a, b = QDRIFT_TOTAL_CONSTANT, query.lam, 2, 3
    else:
        c, x, a, b = TROTTER_TOTAL_CONSTANT * query.L**2, query.lam_max, 1.5, 2
    with contextlib.suppress(OverflowError):
        num, den = x**a, query.delta_E**a * query.P_f**b
        if min(num, den) >= sys.float_info.min and 0.0 < c * num / den < math.inf:
            return c * num / den
    with contextlib.suppress(OverflowError, ZeroDivisionError):
        total = c * (x / query.delta_E) ** a / query.P_f**b
        if total < math.inf:
            return total
    raise _budget_overflow(query)


def _budget_overflow(query: PEQuery) -> OverflowError:
    return OverflowError(
        f"phase-estimation budget overflows a float (delta_E={query.delta_E}, P_f={query.P_f})"
    )


class SpeedupReport(Record):
    __slots__ = ("closed_ratio", "pipeline_ratio")

    def __init__(self, closed_ratio: float, pipeline_ratio: float):
        object.__setattr__(self, "closed_ratio", closed_ratio)
        object.__setattr__(self, "pipeline_ratio", pipeline_ratio)


def pe_speedup(query: PEQuery) -> SpeedupReport:
    """Trotter-over-qdrift total ratios, closed-form and pipeline variants."""
    closed = closed_form_total("trotter", query) / closed_form_total("qdrift", query)
    pipeline = optimize_pf("trotter", query).total / optimize_pf("qdrift", query).total
    return SpeedupReport(closed_ratio=closed, pipeline_ratio=pipeline)


PE_CSV_HEADER = "method,P_f,p_f_opt,eps_tot,m,total_gates,closed_form_gates,ratio"

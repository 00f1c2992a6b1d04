"""Rigorous gate-count bounds for qDRIFT and product formulas, and the one count search.

Product-formula bounds follow the a/b-term structure: with x = L * lam_max * t,

    first order:   a = x^2 / r^2 * e^(lam_max t / r)
                   b = x^3 / (3 r^3) * e^(lam_max t / r)
    order 2k:      a = 2 (2 5^(k-1) lam_max t L)^(2k+1) / ((2k+1)! r^(2k+1)) * e^(2 5^(k-1) lam_max t / r)
                   b = (2 5^(k-1) lam_max t)^(2k+1) L^2k / ((2k-1)! r^(2k+1)) * e^(same)

    deterministic error <= (r/2) a      randomized error <= (r/2)(a^2 + 2 b)

Every bound returns math.inf instead of overflowing (product-formula bounds
and the qDRIFT search run in log space), so comparisons against a target eps
never see a silent infinity.  Gate counts are exact Python integers: L*r per
first-order segment sequence, 2*5^(k-1)*L*r for order 2k, and the exact
qDRIFT count for the randomized compiler (no L factor).
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .weights import Record, WeightProfile

R_MAX = 2**63
INT64_MAX = 2**63 - 1
SUPPORTED_K = (1, 2, 3)

# qDRIFT counts are exact Python integers and may exceed int64 (reports
# serialize those as logarithms); the guard only stops pathological inputs.
_N_LIMIT = 2**512

_LOG_2 = math.log(2.0)

# The search decides a probe more than a relative 1 / _MARGIN outside its
# evaluated bracket without calling the bound (see _smallest_within).  The
# log-space bounds err by at most about 1e-13 near the root, so 1e-11
# leaves about 50x headroom over twice that.
_MARGIN = 10**11
# Locate: the largest one-sided step in log n, and the secant steps
# before bisection takes over.
_MAX_LOG_STEP = 40.0
_SECANT_STEPS = 8

_FACTORIAL = {n: math.factorial(n) for n in range(0, 9)}


def _check_positive(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _exp_or_inf(log_value: float) -> float:
    """e^log_value, or inf where the result would overflow a float."""
    if log_value > 709.0:
        return math.inf
    return math.exp(log_value)


def _smallest_within(
    bound: Callable[[int], float],
    target: float,
    limit: int,
    start: float = 1.0,
    logs: bool = False,
) -> tuple[int, float] | None:
    """(n, bound(n)) for the smallest n >= 1 with bound(n) <= target, or None
    once the doubling passes ``limit``.

    n is exactly the answer of the reference search: probe n = 1, then
    2, 4, 8, ... (None once the next power of two exceeds ``limit``), then
    bisect between the last failing and the first passing power.  ``limit``
    must be a power of two (``R_MAX`` and ``_N_LIMIT`` are), so the
    doubling's last probe is ``limit`` itself.  ``bound`` must be
    decreasing in n.  ``logs`` says that ``bound`` and ``target`` are
    logarithms, as for the qDRIFT count; otherwise bound values are
    positive, 0 or inf.  bound(n) is the value the search evaluated at n;
    it is not evaluated again.

    Locate: from ``start``, an estimate of the root, a safeguarded secant
    on log bound against log n brackets the answer with evaluated ends,
    bound(below) > target >= bound(above) (see ``_locate``).

    Replay: the reference probes are replayed.  A probe more than a
    relative 1 / _MARGIN below ``below`` fails and one above ``above``
    passes, without an evaluation; only probes inside that margin call
    ``bound``.  This cannot change an outcome: every bound here falls at
    least as fast as 1/n, so a probe 1e-11 away in n is at least 1e-11
    away in log bound.  The log-space evaluation errs far less: against
    50-digit arithmetic, at the answer and one below it on 3,000 random
    solves per method (L <= 3e5, t in [1e-4, 1e12], eps in [1e-12, 0.3]),
    by at most 9.6e-14 for the product formulas and 1.3e-14 for qDRIFT.
    At eps near 1e-300 the log terms at the root reach about 1,000 and the
    error grew to 3.2e-13, still 15x inside twice the margin.  So the
    answer is ``above`` or a probe the replay evaluated.  An exactly
    monotone bound (a step function) needs no margin.  Below _MARGIN the
    bracket is exact (above - below = 1), so every replay decision is
    forced and the replay is skipped.  Past it, the decided probes are not
    walked: the doubling starts at the first power of two at or past
    ``low_cut``, and the bisection at its first midpoint inside the window.
    """
    below, above, above_value = _locate(bound, target, limit, start, logs)
    if above is None:
        # ``limit``, the largest power of two the doubling may probe, fails.
        return None
    if above < _MARGIN:
        return above, above_value
    low_cut, high_cut = below - below // _MARGIN, above + above // _MARGIN
    # A probe calls bound only inside [low_cut, high_cut]; past high_cut it
    # passes, below low_cut and at ``below`` it fails, and at ``above`` it
    # passes with the value already evaluated.  Every power of two below
    # low_cut fails.
    hi = 1 << (low_cut - 1).bit_length()
    lo = hi // 2
    while not (
        hi_value := -math.inf if hi > high_cut else above_value if hi == above
        else math.inf if hi == below else bound(hi)
    ) <= target:
        lo, hi = hi, hi * 2
        if hi > limit:
            return None
    # The bisection's first midpoint inside the window is the window's
    # element with the most trailing zeros.  The midpoints before it lie
    # outside the window and are decided without an evaluation; if they
    # moved hi, it now lies past high_cut.
    first, last = (low_cut if low_cut > lo else lo + 1), (high_cut if high_cut < hi else hi - 1)
    if first <= last:
        step = 1 << ((first - 1) ^ last).bit_length() - 1
        mid = last // step * step
        lo, hi, hi_value = mid - step, mid + step, hi_value if mid + step == hi else -math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid > high_cut:
            hi, hi_value = mid, -math.inf
        elif mid == above:
            hi, hi_value = mid, above_value
        elif mid < low_cut or mid == below or not (mid_value := bound(mid)) <= target:
            lo = mid
        else:
            hi, hi_value = mid, mid_value
    return hi, hi_value


def _locate(
    bound: Callable[[int], float], target: float, top: int, start: float, logs: bool
) -> tuple[int, int | None, float | None]:
    """(below, above, bound(above)): bound(below) > target >= bound(above), both evaluated.

    below is 0 when n = 1 passes, above is None when ``top`` fails.  The
    bracket is exact (above - below = 1) or, past _MARGIN, narrower than
    above / _MARGIN.  In log space a gap g = log bound(n) - log target,
    and a bound falling at least as fast as 1/n crosses the target within
    a factor e^|g| of n: that one-sided step brackets the root, and a
    secant through the last two probes narrows the bracket.  A bisection
    takes over after _SECANT_STEPS secant steps, so a step function is
    searched in about log2 of its bracket.
    """
    log, exp = math.log, math.exp
    log_target = target if logs else log(target)
    below, above, above_value = 0, None, None
    if not start >= 1:  # also a NaN start
        n = 1
    else:
        n = top if start >= top else math.ceil(start)
    last = None
    last_failed = False
    secant_steps = 0
    while True:
        value = bound(n)
        if logs:
            gap = value - target
        else:
            gap = log(value) - log_target if value > 0 else -math.inf
        failed = not value <= target
        if failed:
            below = n
        else:
            above, above_value = n, value
        point = (log(n), gap)
        if above is None:
            if below >= top:
                return below, None, None
            # The 1/n step passes the root; a second failure in a row doubles.
            u = point[0] + ((gap if gap < _MAX_LOG_STEP else _MAX_LOG_STEP) if gap == gap else _LOG_2)
            low = 2 * below if last_failed else below + 1
            n = math.ceil(exp(u if u < 700.0 else 700.0))
            n = top if n >= top or low >= top else low if n < low else n
        elif above - below <= (above // _MARGIN or 1):
            return below, above, above_value
        elif below == 0:
            u = point[0] + ((gap if gap > -_MAX_LOG_STEP else -_MAX_LOG_STEP) if gap == gap else -_LOG_2)
            high = above // 2 if last is not None and not last_failed else above - 1
            n = math.floor(exp(u if u < 700.0 else 700.0))
            n = high if n > high else n if n > 1 else 1
        else:
            n = 0
            if secant_steps < _SECANT_STEPS:
                secant_steps += 1
                (u0, g0), (u1, g1) = last, point
                if g0 != g1 and math.isfinite(g0) and math.isfinite(g1):
                    u = u1 - g1 * (u1 - u0) / (g1 - g0)
                    if math.isfinite(u):
                        # Past _MARGIN, step half the wanted width beyond the
                        # root estimate, away from the last probe's side.
                        half = above // _MARGIN // 2
                        n = math.ceil(exp(u if u < 700.0 else 700.0)) + (half if failed else -half)
                        n = below + 1 if n <= below else above - 1 if n >= above else n
            if n == 0:
                n = (below + above) // 2 if above <= 4 * below else math.isqrt(below * above)
        last, last_failed = point, failed


def _check_r(r: int) -> None:
    # numbers.Integral also holds numpy's integer types, without importing numpy.
    if not isinstance(r, numbers.Integral) or r < 1:
        raise ValueError(f"segment count r must be an integer >= 1, got {r!r}")


def _check_profile_args(L: int, lam_max: float, t: float) -> None:
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    _check_positive(lam_max, "lam_max")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be >= 0, got {t!r}")


def _product_bound(method: Method, L: int, lam_max: float, t: float):
    """Unchecked r -> product-formula bound, and its leading terms.

    The family sets a = A e^(c/r) / r^p and b = B e^(c/r) / r^q (see the
    module docstring).  A leading term (log C, p) is C / r^p, the bound's
    term without its exponential factor (which is >= 1).
    """
    if t == 0.0:  # before the products: an overflowed L * lam_max times 0.0 is nan
        return (lambda r: 0.0), ()
    first_order = method.family == "trotter"
    if first_order:
        x, c, p, q = L * lam_max * t, lam_max * t, 2, 3
    else:
        k = method.k
        x = c = 2 * 5 ** (k - 1) * lam_max * t
        p = q = 2 * k + 1
    if x == 0.0:
        return (lambda r: 0.0), ()
    if first_order:
        log_a, log_b = 2 * math.log(x), 3 * math.log(x) - math.log(3)
    else:
        log_a = math.log(2) + p * (math.log(x) + math.log(L)) - math.log(_FACTORIAL[p])
        log_b = p * math.log(x) + 2 * k * math.log(L) - math.log(_FACTORIAL[2 * k - 1])
    # The closures bind log and exp and inline _exp_or_inf's guard.
    log, exp, inf = math.log, math.exp, math.inf
    if method.variant == "det":
        # The two families round (r/2) a in different orders; each keeps its own.
        if first_order:

            def bound(r: int) -> float:
                v = log_a - log(2 * r) + c / r
                return inf if v > 709.0 else exp(v)

        else:

            def bound(r: int) -> float:
                log_r = log(r)
                v = log_r - _LOG_2 + (log_a - p * log_r + c / r)
                return inf if v > 709.0 else exp(v)

        return bound, ((log_a - _LOG_2, p - 1),)

    def bound(r: int) -> float:
        # (r/2)(a^2 + 2b) assembled in log space.
        log_r = log(r)
        exp_arg = c / r
        la2 = 2 * (log_a - p * log_r + exp_arg)
        lb2 = _LOG_2 + (log_b - q * log_r + exp_arg)
        m = la2 if la2 >= lb2 else lb2
        if m == inf:
            return inf
        v = log_r - _LOG_2 + m + log(exp(la2 - m) + exp(lb2 - m))
        return inf if v > 709.0 else exp(v)

    return bound, ((2 * log_a - _LOG_2, 2 * p - 1), (log_b, q - 1))


def _leading_root(terms: tuple[tuple[float, int], ...], eps: float) -> float:
    """Largest root of C / r^p = eps over the leading terms.

    Below it some term, and so the bound, exceeds eps: a lower bound on
    the answer.
    """
    if not terms:
        return 1.0
    log_eps = math.log(eps)
    return math.exp(min(700.0, max((log_c - log_eps) / p for log_c, p in terms)))


def segment_error_bound(lam: float, t: float, n: int) -> float:
    """Rigorous channel distance bound for one step: (2 lam^2 t^2 / N^2) e^{2 lam t / N}.

    Returns inf instead of raising once the bound exceeds the float range.
    """
    if t == 0.0:  # before the products: an overflowed 2.0 * lam times 0.0 is nan
        return 0.0
    x = 2.0 * lam * t / n
    return 0.5 * x * x * _exp_or_inf(x)


def total_error_bound(lam: float, t: float, n: int) -> float:
    """N-step bound (2 lam^2 t^2 / N) e^{2 lam t / N} (subadditivity over segments).

    Where the segment bound is below the smallest normal float, it keeps
    too few digits (or none) for n times it to fall with n, and the total
    is taken in log space instead.
    """
    segment = segment_error_bound(lam, t, n)
    if segment < sys.float_info.min and lam * t > 0.0:
        return _exp_or_inf(_log_total_bound(lam, t)(n))
    return n * segment


def _log_total_bound(lam: float, t: float) -> Callable[[int], float]:
    """n -> log total_error_bound(lam, t, n), in log space; lam * t > 0."""
    head, x, log = _LOG_2 + 2.0 * math.log(lam * t), 2.0 * lam * t, math.log
    return lambda n: head - log(n) + x / n


def gate_count_approx(lam: float, t: float, eps: float) -> int:
    """Gate count from the quadratic bound: ceil(2 lam^2 t^2 / eps), at least 1."""
    _check_positive(lam, "lam")
    _check_positive(t, "t")
    _check_positive(eps, "eps")
    try:
        return max(1, math.ceil(2.0 * (lam * t) ** 2 / eps))
    except OverflowError:
        raise OverflowError(f"gate count overflows a float (lam={lam}, t={t}, eps={eps})") from None


def gate_count_exact(lam: float, t: float, eps: float) -> int:
    """Smallest N with (2 lam^2 t^2 / N) e^{2 lam t / N} <= eps.

    The bound is strictly decreasing in N, so the answer is unique; it is
    searched in log space so huge lam*t never overflows, starting from the
    root of its leading term 2 (lam t)^2 / N (``_leading_root``).  A lam*t
    that underflows to 0 has bound 0 and gives N = 1.
    """
    _check_positive(lam, "lam")
    _check_positive(t, "t")
    _check_positive(eps, "eps")
    if lam * t == 0.0:
        return 1
    start = _leading_root(((_LOG_2 + 2.0 * math.log(lam * t), 1),), eps)
    found = _smallest_within(_log_total_bound(lam, t), math.log(eps), _N_LIMIT, start, logs=True)
    if found is None:
        raise OverflowError(f"no gate count <= 2**512 reaches eps={eps}")
    return found[0]


def _checked_bound(method: Method, L: int, lam_max: float, t: float, r: int) -> float:
    _check_r(r)
    _check_profile_args(L, lam_max, t)
    return _product_bound(method, L, lam_max, t)[0](r)


def trotter_error_det(L: int, lam_max: float, t: float, r: int) -> float:
    """First-order deterministic bound (r/2) a = (L lam_max t)^2 / (2r) * e^(lam_max t / r)."""
    return _checked_bound(TROTTER_DET, L, lam_max, t, r)


def trotter_error_random(L: int, lam_max: float, t: float, r: int) -> float:
    """First-order randomized bound (r/2)(a^2 + 2 b)."""
    return _checked_bound(TROTTER_RANDOM, L, lam_max, t, r)


def suzuki_error(k: int, L: int, lam_max: float, t: float, r: int, variant: str = "det") -> float:
    """Order-2k Suzuki bound at r segments, deterministic or randomized."""
    return _checked_bound(Method("suzuki", variant, k), L, lam_max, t, r)


def solve_r(error_fn: Callable[[int], float], eps: float) -> int:
    """Smallest integer r >= 1 with error_fn(r) <= eps.

    error_fn must be decreasing in r.  The result equals that of the
    doubling-then-bisection reference search (r - 1 fails, so it is
    minimal); see ``_smallest_within`` for the margin argument, a relative
    1e-11 sized by the bounds' measured error, that lets the search skip
    most of the reference's evaluations.  A callable from
    ``error_function`` carries ``start(eps)``, where the search begins;
    any other callable starts at r = 1.
    """
    _check_positive(eps, "eps")
    start = getattr(error_fn, "start", None)
    found = _smallest_within(error_fn, eps, R_MAX, 1.0 if start is None else start(eps))
    if found is None:
        raise OverflowError(f"no segment count <= 2**63 reaches eps={eps}")
    return found[0]


class Method(Record):
    """Product-formula identifier: family trotter|suzuki|qdrift, det|random, 2k order."""

    __slots__ = ("family", "variant", "k")

    def __init__(self, family: str, variant: str = "det", k: int = 0):
        if family not in ("trotter", "suzuki", "qdrift"):
            raise ValueError(f"unknown method family {family!r}")
        if family == "suzuki" and k not in SUPPORTED_K:
            raise ValueError(f"suzuki k must be in {SUPPORTED_K}, got {k}")
        if family != "qdrift" and variant not in ("det", "random"):
            raise ValueError(f"variant must be 'det' or 'random', got {variant!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "k", k)

    @property
    def order(self) -> int:
        if self.family == "trotter":
            return 1
        if self.family == "suzuki":
            return 2 * self.k
        return 0

    @property
    def label(self) -> str:
        if self.family == "qdrift":
            return "qdrift"
        if self.family == "trotter":
            return f"trotter-{self.variant}"
        return f"suzuki{self.order}-{self.variant}"


QDRIFT = Method("qdrift", "", 0)
TROTTER_DET = Method("trotter", "det")
TROTTER_RANDOM = Method("trotter", "random")
SUZUKI_DET = {k: Method("suzuki", "det", k) for k in SUPPORTED_K}
SUZUKI_RANDOM = {k: Method("suzuki", "random", k) for k in SUPPORTED_K}

# "First four orders": first-order Trotter plus Suzuki 2k for k = 1, 2, 3,
# each in deterministic and randomized form.
DEFAULT_CANDIDATES: tuple[Method, ...] = (
    TROTTER_DET,
    TROTTER_RANDOM,
    SUZUKI_DET[1],
    SUZUKI_RANDOM[1],
    SUZUKI_DET[2],
    SUZUKI_RANDOM[2],
    SUZUKI_DET[3],
    SUZUKI_RANDOM[3],
)


class CostQuery(Record):
    """One (profile, t, eps) gate-count question."""

    __slots__ = ("profile", "t", "eps")

    def __init__(self, profile: WeightProfile, t: float, eps: float):
        _check_positive(t, "t")
        _check_positive(eps, "eps")
        if eps >= 1:
            warnings.warn(f"target precision eps={eps} >= 1 is unusually loose", stacklevel=2)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "eps", eps)


class CostReport(Record):
    """Solved cost for one method: minimal segments, exact gate count, achieved bound."""

    __slots__ = ("method", "r", "gates", "bound")

    def __init__(self, method: Method, r: int | None, gates: int, bound: float):
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "bound", bound)

    @property
    def log10_gates(self) -> float:
        return math.log10(self.gates)


def error_function(method: Method, profile: WeightProfile, t: float) -> Callable[[int], float]:
    """Bound-vs-r callable for a product-formula method.

    The arguments are checked once, here.  The callable checks nothing
    and evaluates the same float expressions as the public bound function,
    so its values are bit-identical.  Its ``start(eps)`` inverts the
    bound's leading terms at eps, a lower bound on the answer that
    ``solve_r`` starts from.
    """
    if method.family not in ("trotter", "suzuki"):
        raise ValueError(f"no segment error function for {method.label}")
    L, lam_max = profile.L, profile.lam_max
    _check_profile_args(L, lam_max, t)
    bound, terms = _product_bound(method, L, lam_max, t)
    bound.start = partial(_leading_root, terms)
    return bound


def gates_per_segment(method: Method, L: int) -> int:
    if method.family == "trotter":
        return L
    return 2 * 5 ** (method.k - 1) * L


def _count(method: Method, profile: WeightProfile, t: float, eps: float) -> tuple[int | None, int, float] | None:
    """(r, gates, bound) for one method at (t, eps), or None where the count overflows;
    r is None for qDRIFT.  The one place a count is made; a CostQuery checks the arguments."""
    if method.family == "qdrift":
        try:
            n = gate_count_exact(profile.lam, t, eps)
        except OverflowError:
            return None
        return None, n, total_error_bound(profile.lam, t, n)
    bound, terms = _product_bound(method, profile.L, profile.lam_max, t)
    found = _smallest_within(bound, eps, R_MAX, _leading_root(terms, eps))
    if found is None:
        return None
    r, value = found
    return r, gates_per_segment(method, profile.L) * r, value


def _counts(methods: Iterable[Method], query: CostQuery) -> Iterator[tuple | None]:
    """_count for each method at the query, computed as it is read."""
    profile, t, eps = query.profile, query.t, query.eps
    return (_count(method, profile, t, eps) for method in methods)


def gate_count(method: Method, query: CostQuery) -> CostReport:
    """Minimal-gate CostReport for one method at the query's (t, eps)."""
    count = _count(method, query.profile, query.t, query.eps)
    if count is None:
        limit = "gate count <= 2**512" if method.family == "qdrift" else "segment count <= 2**63"
        raise OverflowError(f"no {limit} reaches eps={query.eps}")
    return CostReport(method, *count)


def _tie_key(report: CostReport) -> tuple:
    variant_rank = {"det": 0, "random": 1, "": 2}[report.method.variant]
    order = report.method.order if report.method.family != "qdrift" else 10**6
    return (report.gates, order, variant_rank)


def gate_counts(methods: Sequence[Method], query: CostQuery) -> list[CostReport | None]:
    """A CostReport per method, or None where its count overflows."""
    counts = zip(methods, _counts(methods, query))
    return [None if count is None else CostReport(method, *count) for method, count in counts]


def qdrift_costs_more(counts: Iterable[tuple | None]) -> bool:
    """qDRIFT's count, the first of ``counts`` (``_count`` tuples), needs more gates than
    a later one, and reading stops there.  An overflowed count (None) costs infinitely
    many gates, and inf against inf is no crossing."""
    gates = (math.inf if count is None else count[1] for count in counts)
    qdrift = next(gates)
    return any(other < qdrift for other in gates)


def best_method(query: CostQuery, candidates: Sequence[Method] = DEFAULT_CANDIDATES) -> CostReport:
    """Cheapest candidate; ties broken by lower order, deterministic first."""
    reports = [report for report in gate_counts(candidates, query) if report is not None]
    if not reports:
        raise OverflowError("every candidate method overflowed the segment solver")
    return min(reports, key=_tie_key)


def log_grid(lo: float, hi: float, points: int) -> list[float]:
    """``points`` floats from ``lo`` to ``hi``, evenly spaced in log10.

    With a, b = log10(lo), log10(hi), the exponents are numpy's ``linspace``
    arithmetic, y_i = i * ((b - a) / (points - 1)) + a and y[-1] = b, and
    point i is 10.0 ** y_i.  numpy's ``logspace`` computes the same points,
    but its power can round differently with the SIMD code numpy picks for
    the CPU; this one is the C library's, which the bounds' log and exp
    also use.  One point is [10.0 ** a], and no point is [].
    """
    a, b = math.log10(lo), math.log10(hi)
    if points < 2:
        return [10.0**a] * points
    step = (b - a) / (points - 1)
    return [10.0 ** (i * step + a) for i in range(points - 1)] + [10.0**b]


def crossover_time(
    profile: WeightProfile,
    eps: float,
    t_range: tuple[float, float],
    points: int = 50,
    candidates: Sequence[Method] = DEFAULT_CANDIDATES,
    verdicts: Mapping[float, bool] | None = None,
) -> float | None:
    """Smallest t in range where qDRIFT costs more than the best candidate.

    Scans a log-spaced grid, then bisects in log t to 3 significant
    figures.  Returns None when the grid shows no crossing.  A method
    whose segment count overflows costs infinitely many gates.
    ``verdicts`` maps times already costed for the same profile, eps and
    candidates (a sweep's grid) to whether qDRIFT costs more there; those
    times are not solved again.
    """
    t_lo, t_hi = t_range
    if not (0 < t_lo < t_hi) or points < 2:
        raise ValueError(f"invalid scan range {t_range!r} with {points} points")
    known = verdicts or {}

    def qdrift_exceeds(t: float) -> bool:
        if t in known:
            return known[t]
        # qDRIFT first, then the candidates until one is cheaper.
        return qdrift_costs_more(_counts((QDRIFT, *candidates), CostQuery(profile, t, eps)))

    grid = log_grid(t_lo, t_hi, points)
    previous = qdrift_exceeds(grid[0])
    bracket = None
    for i in range(1, points):
        current = qdrift_exceeds(grid[i])
        if current and not previous:
            bracket = (grid[i - 1], grid[i])
            break
        previous = current
    if bracket is None:
        return None
    lo, hi = bracket
    while hi / lo > 1.001:
        mid = math.sqrt(lo * hi)
        if qdrift_exceeds(mid):
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


COST_CSV_HEADER = "method,order,variant,r,gates,bound,t,eps,L,Lambda,lambda"

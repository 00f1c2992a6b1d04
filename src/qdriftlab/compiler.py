"""Randomized product-formula compilation.

Implements the qDRIFT gate-sequence emitter: given H = sum_j h_j H_j, it
draws N gates i.i.d. with probability p_j = h_j / lam and assigns every
gate the identical angle tau = lam * t / N.  The gate count N comes from
either the quadratic bound ceil(2 (lam t)^2 / eps) ("approx" mode) or the
smallest N whose rigorous channel-error bound (2 lam^2 t^2 / N) e^{2 lam t / N}
falls below eps ("exact" mode, the default).

Reproducibility contract: sampling uses numpy's counter-based Philox
bit generator keyed directly with the 64-bit seed, and draws one uniform
per gate through ``Generator.random``.  Identical (Hamiltonian canonical
form, t, eps, seed, mode) produce bit-identical circuits on every
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .hamiltonian import Hamiltonian

MAX_SEED = 2**64 - 1
# Counts are exact Python integers and may exceed int64 (reports serialize
# those as logarithms); the guard only stops pathological inputs.
_N_LIMIT = 2**512

_LOG_2 = math.log(2.0)

# The search decides a probe more than a relative 1 / _MARGIN outside its
# evaluated bracket without calling the bound (see _smallest_within).
_MARGIN = 10**9
# Locate: the largest one-sided step in log n, and the secant steps
# before bisection takes over.
_MAX_LOG_STEP = 40.0
_SECANT_STEPS = 8

# Gates are drawn and serialized in blocks of this many, so the memory a
# compile needs beyond its index array does not grow with N.
_CHUNK = 1 << 16


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
) -> int | None:
    """Smallest n >= 1 with bound(n) <= target, or None once the doubling passes ``limit``.

    The result is exactly that of the reference search: probe n = 1, then
    2, 4, 8, ... (None once the next power of two exceeds ``limit``), then
    bisect between the last failing and the first passing power.  ``bound``
    must be decreasing in n.  ``logs`` says that ``bound`` and ``target``
    are logarithms, as for the qDRIFT count; otherwise bound values are
    positive, 0 or inf.

    Locate: from ``start``, an estimate of the root, a safeguarded secant
    on log bound against log n brackets the answer with evaluated ends,
    bound(below) > target >= bound(above) (see ``_locate``).

    Replay: the reference probes are replayed.  A probe more than a
    relative 1 / _MARGIN below ``below`` fails and one above ``above``
    passes, without an evaluation; only probes inside that margin call
    ``bound``.  This cannot change an outcome: every bound here falls at
    least as fast as 1/n, so a probe 1e-9 away in n is at least 1e-9 away
    in log bound, while the log-space evaluation carries an error of about
    1e-13.  An exactly monotone bound (a step function) needs no margin.
    When the bracket is exact (above - below = 1 and above < _MARGIN) every
    replay decision is forced and the replay is skipped.
    """
    top = max(2, 1 << (limit.bit_length() - 1))
    below, above = _locate(bound, target, top, start, logs)
    if above is None:
        # The largest power of two the doubling may probe fails.
        return None
    if above - below == 1 and above < _MARGIN:
        # The doubling stops at the first power of two >= above.
        return above if above <= 2 or 1 << (above - 1).bit_length() <= limit else None
    low_cut, high_cut = below - below // _MARGIN, above + above // _MARGIN

    def passes(n: int) -> bool:
        if n > high_cut or n == above:
            return True
        if n < low_cut or n == below:
            return False
        return bound(n) <= target

    if passes(1):
        return 1
    lo, hi = 1, 2
    while not passes(hi):
        lo, hi = hi, hi * 2
        if hi > limit:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _locate(
    bound: Callable[[int], float], target: float, top: int, start: float, logs: bool
) -> tuple[int, int | None]:
    """(below, above): bound(below) > target >= bound(above), both evaluated.

    below is 0 when n = 1 passes, above is None when ``top`` fails.  The
    bracket is exact (above - below = 1) or, past _MARGIN, narrower than
    above / _MARGIN.  In log space a gap g = log bound(n) - log target,
    and a bound falling at least as fast as 1/n crosses the target within
    a factor e^|g| of n: that one-sided step brackets the root, and a
    secant through the last two probes narrows the bracket.  A bisection
    takes over after _SECANT_STEPS secant steps, so a step function is
    searched in about log2 of its bracket.
    """
    log_target = target if logs else math.log(target)
    below, above = 0, None
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
            gap = math.log(value) - log_target if value > 0 else -math.inf
        failed = not value <= target
        if failed:
            below = n
        else:
            above = n
        point = (math.log(n), gap)
        if above is None:
            if below >= top:
                return below, None
            # The 1/n step passes the root; a second failure in a row doubles.
            step = min(gap, _MAX_LOG_STEP) if gap == gap else _LOG_2
            n = min(top, max(below + 1, math.ceil(math.exp(min(point[0] + step, 700.0)))))
            if last_failed:
                n = max(n, min(top, 2 * below))
        elif above - below <= max(1, above // _MARGIN):
            return below, above
        elif below == 0:
            step = max(gap, -_MAX_LOG_STEP) if gap == gap else -_LOG_2
            n = max(1, min(above - 1, math.floor(math.exp(min(point[0] + step, 700.0)))))
            if last is not None and not last_failed:
                n = min(n, max(1, above // 2))
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
                        n = math.ceil(math.exp(min(u, 700.0))) + (half if failed else -half)
                        n = min(above - 1, max(below + 1, n))
            if n == 0:
                n = (below + above) // 2 if above <= 4 * below else math.isqrt(below * above)
        last, last_failed = point, failed


def segment_error_bound(lam: float, t: float, n: int) -> float:
    """Rigorous channel distance bound for one step: (2 lam^2 t^2 / N^2) e^{2 lam t / N}.

    Returns inf instead of raising once the bound exceeds the float range.
    """
    x = 2.0 * lam * t / n
    return 0.5 * x * x * _exp_or_inf(x)


def total_error_bound(lam: float, t: float, n: int) -> float:
    """N-step bound (2 lam^2 t^2 / N) e^{2 lam t / N} (subadditivity over segments)."""
    return n * segment_error_bound(lam, t, n)


def _log_total_bound(lam: float, t: float, n: int) -> float:
    return _LOG_2 + 2.0 * math.log(lam * t) - math.log(n) + 2.0 * lam * t / n


def _log_total_root(lam_t: float, eps: float) -> float:
    """Real root of _log_total_bound = log eps: n = 2 lam t / W(eps / (lam t)).

    With y = 2 lam t / n the equation reads y e^y = eps / (lam t), so y is
    Lambert's W, found by Newton's method on w + log w = log z from
    log(1 + z), which lies above W(z); every iterate stays positive.
    """
    z = eps / lam_t
    if z == 0.0 or z == math.inf:
        return math.inf if z == 0.0 else 1.0
    log_z = math.log(z)
    w = math.log1p(z)
    for _ in range(64):
        w, previous = w * (1.0 + log_z - math.log(w)) / (1.0 + w), w
        if abs(w - previous) <= 1e-15 * w:
            break
    return 2.0 * lam_t / w


def gate_count_approx(lam: float, t: float, eps: float) -> int:
    """Gate count from the quadratic bound: ceil(2 lam^2 t^2 / eps), at least 1."""
    _check_positive(lam, "lam")
    _check_positive(t, "t")
    _check_positive(eps, "eps")
    return max(1, math.ceil(2.0 * (lam * t) ** 2 / eps))


def gate_count_exact(lam: float, t: float, eps: float) -> int:
    """Smallest N with (2 lam^2 t^2 / N) e^{2 lam t / N} <= eps.

    The bound is strictly decreasing in N, so the answer is unique; it is
    searched in log space so huge lam*t never overflows, starting from the
    real root of the log bound (``_log_total_root``).  A lam*t that
    underflows to 0 has bound 0 and gives N = 1.
    """
    _check_positive(lam, "lam")
    _check_positive(t, "t")
    _check_positive(eps, "eps")
    if lam * t == 0.0:
        return 1
    n = _smallest_within(
        partial(_log_total_bound, lam, t), math.log(eps), _N_LIMIT, _log_total_root(lam * t, eps), logs=True
    )
    if n is None:
        raise OverflowError(f"no gate count <= 2**512 reaches eps={eps}")
    return n


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator keyed with the 64-bit seed."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not (0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _index_dtype(size: int) -> np.dtype:
    """Narrowest unsigned dtype holding every index below ``size``."""
    return np.dtype(np.uint16 if size <= 1 << 16 else np.uint32)


class AliasSampler:
    """Vose alias table over a positive weight vector: O(L) build, O(1) draw.

    A draw consumes a single uniform u in [0, 1): the integer part of u*L
    picks a column, the fractional part decides between the column and its
    alias.  Under an ideal uniform source the returned index j has
    probability exactly w_j / sum(w).
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and > 0")
        self._p = w / math.fsum(w.tolist())
        n = w.size
        # The loop runs on Python floats, which round exactly as numpy
        # float64 scalars do but index far faster.
        scaled = (self._p * n).tolist()
        small = [i for i, x in enumerate(scaled) if x < 1.0]
        large = [i for i, x in enumerate(scaled) if x >= 1.0]
        prob = [1.0] * n
        alias = list(range(n))
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] -= 1.0 - scaled[s]
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        # Leftovers are 1 up to roundoff; both stacks keep prob = 1.
        self._prob = np.array(prob)
        self._alias = np.array(alias, dtype=np.int64)

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized target distribution w / sum(w)."""
        return self._p.copy()

    @property
    def size(self) -> int:
        return self._p.size

    def sample(self, rng: np.random.Generator) -> int:
        return int(self.sample_many(rng, 1)[0])

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` indices, one uniform each, in the narrowest unsigned dtype.

        Uniforms are drawn in blocks of 2**16.  The blocks consume the
        generator's stream in order, so the indices equal those from a
        single ``rng.random(count)`` call.  The dtype is uint16 for up to
        65536 weights, else uint32.
        """
        size = self.size
        out = np.empty(count, dtype=_index_dtype(size))
        for start in range(0, count, _CHUNK):
            x = rng.random(min(_CHUNK, count - start)) * size
            idx = np.minimum(x.astype(np.int64), size - 1)
            frac = x - idx
            out[start : start + x.size] = np.where(frac < self._prob[idx], idx, self._alias[idx])
        return out


@dataclass(frozen=True)
class CircuitMeta:
    seed: int
    N: int
    t: float
    eps: float
    lam: float
    mode: str
    controlled: bool = False


class Circuit:
    """Ordered gate list sharing one angle tau = lam * t / N.

    Gate indices are stored in the narrowest unsigned dtype that holds
    every term index of ``source`` (uint16 for up to 65536 terms, else
    uint32), so a circuit costs 2 or 4 bytes per gate.  ``term_indices``
    returns an int64 copy.
    """

    __slots__ = ("_indices", "tau", "meta", "source")

    def __init__(self, term_indices: np.ndarray, tau: float, meta: CircuitMeta, source: Hamiltonian):
        self._indices = np.asarray(term_indices, dtype=_index_dtype(source.L))
        self.tau = tau
        self.meta = meta
        self.source = source

    def __len__(self) -> int:
        return self._indices.size

    @property
    def term_indices(self) -> np.ndarray:
        return self._indices.astype(np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.meta == other.meta
            and self.tau == other.tau
            and np.array_equal(self._indices, other._indices)
        )

    def iter_text(self) -> Iterator[str]:
        """Yield the ``qdrift-circ v1`` text in pieces: the header, then one piece per 2**16 gates.

        Each term's gate line is formatted once into a table, and a piece
        is the join of table lookups, so memory beyond the index array
        stays bounded whatever N is.
        """
        tau_text = format(self.tau, ".17g")
        yield f"# qdrift-circ v1\n# seed={self.meta.seed}\n# N={self.meta.N}\n# tau={tau_text}\n"
        op = "CROT" if self.meta.controlled else "ROT"
        h = self.source
        table = [
            f"{op} {j} {'+' if c > 0 else '-'}{word} {tau_text}\n"
            for j, (c, word) in enumerate(zip(h.coefficients.tolist(), h.words))
        ]
        line = table.__getitem__
        for start in range(0, self._indices.size, _CHUNK):
            yield "".join(map(line, self._indices[start : start + _CHUNK].tolist()))

    def to_text(self) -> str:
        """Serialize as ``qdrift-circ v1``: header comments then one gate per line."""
        return "".join(self.iter_text())


def _resolve_gate_count(lam: float, t: float, eps: float, mode: str) -> int:
    if mode == "exact":
        return gate_count_exact(lam, t, eps)
    if mode == "approx":
        return gate_count_approx(lam, t, eps)
    raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")


def compile_circuit(
    h: Hamiltonian,
    t: float,
    eps: float,
    seed: int,
    mode: str = "exact",
    controlled: bool = False,
) -> Circuit:
    """Emit the randomized gate sequence for exp(i t H) to target precision eps.

    N comes from the selected mode, every gate carries tau = lam * t / N,
    and indices are drawn i.i.d. with p_j = h_j / lam.  The Hamiltonian is
    canonicalized first (gate indices refer to the canonical term order),
    making the output a pure function of (canonical form, t, eps, seed,
    mode) regardless of input term order.  controlled=True keeps N and the
    sampled stream and flags every gate as a controlled rotation.
    """
    _check_positive(t, "t")
    _check_positive(eps, "eps")
    if h.L == 0:
        raise ValueError("cannot compile an empty Hamiltonian")
    h = h.canonical()
    rng = rng_from_seed(seed)
    n = _resolve_gate_count(h.lam, t, eps, mode)
    if n > 2**31:
        raise ValueError(
            f"circuit would need N={n} gates; materializing it is impractical, "
            "use the cost engine for this regime"
        )
    tau = h.lam * t / n
    indices = AliasSampler(h.weights).sample_many(rng, n)
    meta = CircuitMeta(seed=int(seed), N=n, t=t, eps=eps, lam=h.lam, mode=mode, controlled=controlled)
    return Circuit(indices, tau, meta, h)


def elementary_gate_estimate(circuit: Circuit) -> dict[str, int]:
    """Rotation / control-X footprint after expanding controlled rotations."""
    n = len(circuit)
    if circuit.meta.controlled:
        return {"rotations": 2 * n, "control_x": 2 * n}
    return {"rotations": n, "control_x": 0}

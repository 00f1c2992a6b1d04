"""Reference implementations that the fast paths in ``qdriftlab`` must match.

These are the straightforward forms the library used before it streamed
compile output (one f-string per gate, the alias draw as a clamp and a
select over blocks of uniforms) and before the Hamiltonian became columnar
(an object-based Hamiltonian that keeps a tuple of the ``Term`` and
``PauliString`` objects defined here, its per-character parser, and the
alias table built on numpy scalars), the canonical order taken with one
lexsort over a string array of the words, the per-letter loop that gave
each word's letter codes before they were looked up on the byte column of
the words, plus the doubling-plus-bisection loop
that ``gate_count_exact`` and ``solve_r`` each carried before they shared
one search, the qDRIFT log bound as the one expression it was before the
search bound it to (lam, t), the crossover scan that costed every method at
every time before it stopped at the first candidate cheaper than qDRIFT,
and the dense d^2 x d^2 superoperator path that ``verify``
measured before it certified from Kraus data, with the seed-averaged
channel of compiled circuits that converges to E^N, the loop that applied
the composition step n times before it summed a binomial series, and the golden-section
search that ``phase_estimation.optimize_pf`` ran before it solved the
failure-share split in closed form, and the per-bit phase-estimation counts
summed in log space.  Helpers that no job calls moved here from the
library: the repeated-run frequency filter of phase estimation, the
closed-form Suzuki count, a cross-check on the segment solver, and its
constants with the widely printed ones they are compared against.  They are
kept for tests only, as are the separate first-order and order-2k bound
builders that one product-formula builder replaced and the four
self-test lines that ``verify`` printed on every run, whatever its input.
The dense builders read a ``Hamiltonian``'s columns.  The file loader that
``cli`` used before it read files as bytes is kept as the oracle of its
read path.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from qdriftlab.channels import (
    MAX_CHANNEL_QUBITS,
    MAX_POWER_QUBITS,
    BoundRow,
    CompositionTrial,
    _letter_masks,
    _pauli_products,
)
from qdriftlab.compiler import AliasSampler, compile_circuit, rng_from_seed
from qdriftlab.hamiltonian import (
    PAULI_AXES,
    Hamiltonian,
    HamiltonianError,
    HamiltonianParseError,
    parse_hamiltonian,
)
from qdriftlab.phase_estimation import _smooth_total
from qdriftlab.trotter import (
    _FACTORIAL,
    _LOG_2,
    DEFAULT_CANDIDATES,
    QDRIFT,
    SUPPORTED_K,
    CostQuery,
    _check_positive,
    _check_profile_args,
    _exp_or_inf,
    gate_counts,
    segment_error_bound,
    total_error_bound,
)


def reference_circuit_text(circuit) -> str:
    """``qdrift-circ v1`` text built one line per gate."""
    tau_text = format(circuit.tau, ".17g")
    lines = [
        "# qdrift-circ v1",
        f"# seed={circuit.meta.seed}",
        f"# N={circuit.meta.N}",
        f"# tau={tau_text}",
    ]
    op = "CROT" if circuit.meta.controlled else "ROT"
    h = circuit.source
    paulis = [("+" if c > 0 else "-") + w for w, c in zip(h.words, h.coefficients.tolist())]
    for j in circuit.term_indices:
        lines.append(f"{op} {j} {paulis[j]} {tau_text}")
    return "\n".join(lines) + "\n"


def reference_sample_many(
    sampler, rng: np.random.Generator, count: int, block: int = 1 << 16
) -> np.ndarray:
    """Alias draws through a clamp and a select, ``block`` uniforms at a time.

    This is the loop ``AliasSampler.sample_many`` ran before it indexed one
    table of outcomes: a block of ``count`` (or more) is the single
    ``rng.random(count)`` call.  The indices come in the narrowest unsigned
    dtype, as the sampler's do.
    """
    size = sampler.size
    out = np.empty(count, dtype=np.uint16 if size <= 1 << 16 else np.uint32)
    for start in range(0, count, block):
        x = rng.random(min(block, count - start)) * size
        idx = np.minimum(x.astype(np.int64), size - 1)
        frac = x - idx
        out[start : start + x.size] = np.where(frac < sampler._prob[idx], idx, sampler._alias[idx])
    return out


def reference_segment_error_bound(lam: float, t: float, n: int) -> float:
    """(2 lam^2 t^2 / N^2) e^{2 lam t / N} with an unguarded ``math.exp``."""
    x = 2.0 * lam * t / n
    return 0.5 * x * x * math.exp(x)


def reference_log_total_bound(lam: float, t: float, n: int) -> float:
    """log total_error_bound(lam, t, n) as one expression, before the qDRIFT search bound it to (lam, t)."""
    return _LOG_2 + 2.0 * math.log(lam * t) - math.log(n) + 2.0 * lam * t / n


def reference_doubling_search(bound, target: float, limit: int) -> int | None:
    """Smallest n >= 1 with bound(n) <= target by doubling then bisection; None past ``limit``."""
    if bound(1) <= target:
        return 1
    lo, hi = 1, 2
    while bound(hi) > target:
        lo, hi = hi, hi * 2
        if hi > limit:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def reference_count(method, profile, t: float, eps: float):
    """(r, gates, bound) of ``trotter._count`` from the reference doubling search
    on the reference bounds, or None past the search limit; r is None for qDRIFT."""
    if method.family == "qdrift":
        lam = profile.lam
        log_bound = partial(reference_log_total_bound, lam, t)
        n = 1 if lam * t == 0.0 else reference_doubling_search(log_bound, math.log(eps), 2**512)
        return None if n is None else (None, n, total_error_bound(lam, t, n))
    bound = reference_product_bound(method, profile.L, profile.lam_max, t)[0]
    r = reference_doubling_search(bound, eps, 2**63)
    order_factor = 1 if method.family == "trotter" else 2 * 5 ** (method.k - 1)
    return None if r is None else (r, order_factor * profile.L * r, bound(r))


def reference_log_grid(lo: float, hi: float, points: int) -> list[float]:
    """``trotter.log_grid`` as numpy's linspace raised to powers of 10 by Python.

    This is numpy.logspace without numpy's SIMD power, whose last bit
    depends on the code numpy picks for the CPU."""
    return [10.0**y for y in np.linspace(math.log10(lo), math.log10(hi), points).tolist()]


def reference_crossover_time(profile, eps: float, t_range, points: int = 50, candidates=DEFAULT_CANDIDATES):
    """``trotter.crossover_time`` as it stood before the scan stopped at the first
    candidate cheaper than qDRIFT: every method is costed at every time."""
    methods = (QDRIFT, *candidates)

    def qdrift_exceeds(t: float) -> bool:
        gates = [math.inf if r is None else r.gates for r in gate_counts(methods, CostQuery(profile, t, eps))]
        return gates[0] > min(gates[1:], default=math.inf)

    grid = reference_log_grid(t_range[0], t_range[1], points)
    verdicts = [qdrift_exceeds(t) for t in grid]
    for i in range(1, points):
        if verdicts[i] and not verdicts[i - 1]:
            lo, hi = grid[i - 1], grid[i]
            while hi / lo > 1.001:
                mid = math.sqrt(lo * hi)
                lo, hi = (lo, mid) if qdrift_exceeds(mid) else (mid, hi)
            return math.sqrt(lo * hi)
    return None


def _golden_section(fn, lo: float, hi: float, rel_tol: float = 1e-6) -> float:
    """Minimizer of a unimodal ``fn`` on [lo, hi], to within rel_tol * hi."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > rel_tol * hi:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def reference_optimize_pf(method: str, query) -> float:
    """The failure share p_f that the golden-section search finds on (1e-9, 1 - 1e-9) P_f."""
    def objective(p):
        return _smooth_total(method, p, query)

    return _golden_section(objective, query.P_f * 1e-9, query.P_f * (1.0 - 1e-9))


def log_bit_counts(method: str, m: int, eps_tot: float, L: int = 1, log_lam_max_rescaled: float = 0.0):
    """Natural logs of the m per-bit phase-estimation counts, formed term by term in log space.

    Bit j gets eps_j = eps_tot 2^j / (2 (2^m - 1)) and costs 4^j pi^2 / eps_j
    (qdrift) or 8 L^2 sqrt(2 pi^3 lam_max_A^3 8^j / eps_j) (trotter); no power
    is taken, so nothing overflows or underflows.
    """
    log2 = math.log(2.0)
    log_denom = log2 + m * log2 + math.log1p(-(2.0**-m))
    logs = []
    for j in range(1, m + 1):
        log_eps_j = math.log(eps_tot) + j * log2 - log_denom
        if method == "qdrift":
            logs.append(j * math.log(4.0) + 2.0 * math.log(math.pi) - log_eps_j)
        else:
            logs.append(
                math.log(8.0) + 2.0 * math.log(L)
                + 0.5 * (math.log(2.0 * math.pi**3) + 3.0 * log_lam_max_rescaled + j * math.log(8.0) - log_eps_j)
            )
    return logs


@dataclass(frozen=True)
class FilterVerdict:
    """Outcome of the repeated-run majority filter rule f > 2 P_f + 1/M."""

    feasible: bool
    threshold: float
    min_repetitions: int | None


def repetition_filter(f: float, P_f: float, M: int) -> FilterVerdict:
    """Check whether M repetitions let the frequency filter keep the true energy.

    Also reports the minimal feasible M, or None when f <= 2 P_f (no amount
    of repetition helps).
    """
    if not (0 < f <= 1):
        raise ValueError(f"overlap f must be in (0, 1], got {f!r}")
    if not (0 < P_f < 1):
        raise ValueError(f"P_f must be in (0, 1), got {P_f!r}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    threshold = 2.0 * P_f + 1.0 / M
    margin = f - 2.0 * P_f
    min_m = None if margin <= 0 else math.floor(1.0 / margin) + 1
    return FilterVerdict(feasible=f > threshold, threshold=threshold, min_repetitions=min_m)


def suzuki_b_constant(k: int) -> float:
    """B_k = (2 * 5^(k-1))^(2k+1) / (2k-1)!."""
    if k not in SUPPORTED_K:
        raise ValueError(f"k must be in {SUPPORTED_K}, got {k}")
    return (2 * 5 ** (k - 1)) ** (2 * k + 1) / _FACTORIAL[2 * k - 1]


def suzuki_prefactor(k: int) -> float:
    """C_k = 2 * 5^(k-1) * B_k^(1/2k), the closed-form gate-count constant."""
    return 2 * 5 ** (k - 1) * suzuki_b_constant(k) ** (1.0 / (2 * k))


# Widely quoted explicit constants for the order-2k closed-form counts.
# k=1 agrees with suzuki_prefactor; k=2 and k=3 do not (a known mismatch).
PRINTED_NK_CONSTANTS = {
    1: 4 * math.sqrt(2),
    2: 500 * 10 ** 0.25 / 3,
    3: 156250 * 2 ** (1 / 6) * 5 ** (1 / 3) / 3,
}


def reference_verify_self_test_lines(seed: int) -> list[str]:
    """The four lines ``verify`` printed just before its verdict until it
    stopped self-testing on every run: an alias-sampling check on its own
    generator keyed with seed + 1, whatever the input, and the Suzuki
    constants.  Kept so that the stdout pinned before can be rebuilt."""
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    draws = 100_000
    worst_sigma = 0.0
    for _ in range(4):
        weights = rng.uniform(0.05, 1.0, size=int(rng.integers(2, 9)))
        sampler = AliasSampler(weights)
        counts = np.bincount(sampler.sample_many(rng, draws), minlength=weights.size)
        p = sampler.probabilities
        pulls = np.abs(counts / draws - p) / np.sqrt(p * (1 - p) / draws)
        worst_sigma = max(worst_sigma, pulls.max())
    c1 = suzuki_prefactor(1)
    lines = [
        f"[{'PASS' if worst_sigma <= 5.0 else 'FAIL'}] sampling distribution "
        f"(worst pull {worst_sigma:.2f} sigma)",
        f"[{'PASS' if abs(c1 - 4 * math.sqrt(2)) <= 1e-12 else 'FAIL'}] "
        f"order-2 closed-form constant (C1 = {c1!r})",
    ]
    for k in (2, 3):
        lines.append(
            f"[INFO] order-{2 * k} constant discrepancy: general formula "
            f"{suzuki_prefactor(k):.6g} vs printed {PRINTED_NK_CONSTANTS[k]:.6g} "
            "(known mismatch, reported only)"
        )
    return lines


def closed_form_suzuki_count(k: int, L: int, lam_max: float, t: float, eps: float) -> float:
    """Approximate count N_k = 2 5^(k-1) lam_max t L^2 (lam_max t B_k / eps)^(1/2k).

    Valid when the randomized b-term dominates and lam_max t << r; a
    cross-check, never the definitive report.
    """
    if k not in SUPPORTED_K:
        raise ValueError(f"k must be in {SUPPORTED_K}, got {k}")
    _check_profile_args(L, lam_max, t)
    _check_positive(eps, "eps")
    xt = lam_max * t
    return 2 * 5 ** (k - 1) * xt * L**2 * (xt * suzuki_b_constant(k) / eps) ** (1.0 / (2 * k))


# The first-order and order-2k bound builders as they stood before one
# builder, trotter._product_bound, replaced both; kept verbatim.


def _first_order_bound(L: int, lam_max: float, t: float, variant: str):
    """Unchecked r -> first-order bound, and its leading terms.

    A leading term (log C, p) is C / r^p, the bound's term without its
    exponential factor (which is >= 1).
    """
    x = L * lam_max * t
    if x == 0.0:
        return (lambda r: 0.0), ()
    e = lam_max * t
    log_x2 = 2 * math.log(x)
    if variant == "det":
        return (lambda r: _exp_or_inf(log_x2 - math.log(2 * r) + e / r)), ((log_x2 - _LOG_2, 1),)
    log_x3 = 3 * math.log(x) - math.log(3)

    def bound(r: int) -> float:
        log_r = math.log(r)
        exp_arg = e / r
        return _combine_random(log_x2 - 2 * log_r + exp_arg, log_x3 - 3 * log_r + exp_arg, log_r)

    return bound, ((2 * log_x2 - _LOG_2, 3), (log_x3, 2))


def _suzuki_bound(k: int, L: int, lam_max: float, t: float, variant: str):
    """Unchecked r -> order-2k bound, and its leading terms (see _first_order_bound)."""
    xt = 2 * 5 ** (k - 1) * lam_max * t
    if xt == 0.0:
        return (lambda r: 0.0), ()
    p = 2 * k + 1
    log_a0 = math.log(2) + p * (math.log(xt) + math.log(L)) - math.log(_FACTORIAL[p])
    log_b0 = p * math.log(xt) + 2 * k * math.log(L) - math.log(_FACTORIAL[2 * k - 1])
    if variant == "det":

        def bound(r: int) -> float:
            log_r = math.log(r)
            return _exp_or_inf(log_r - _LOG_2 + (log_a0 - p * log_r + xt / r))

        return bound, ((log_a0 - _LOG_2, 2 * k),)

    def bound(r: int) -> float:
        log_r = math.log(r)
        exp_arg = xt / r
        return _combine_random(log_a0 - p * log_r + exp_arg, log_b0 - p * log_r + exp_arg, log_r)

    return bound, ((2 * log_a0 - _LOG_2, 4 * k + 1), (log_b0, 2 * k))


def _combine_random(log_a: float, log_b: float, log_r: float) -> float:
    # (r/2)(a^2 + 2b) assembled in log space.
    la2 = 2 * log_a
    lb2 = _LOG_2 + log_b
    m = max(la2, lb2)
    if m == math.inf:
        return math.inf
    total = log_r - _LOG_2 + m + math.log(math.exp(la2 - m) + math.exp(lb2 - m))
    return _exp_or_inf(total)


def reference_product_bound(method, L: int, lam_max: float, t: float):
    """(r -> bound, leading terms) for a product-formula method from the two builders above."""
    if method.family == "trotter":
        return _first_order_bound(L, lam_max, t, method.variant)
    return _suzuki_bound(method.k, L, lam_max, t, method.variant)


def log_sum(logs) -> float:
    """log of the sum of exp(x) over ``logs``, without overflow."""
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def max_search_evaluations(answer: int | None) -> int:
    """Stated cost of ``trotter._smallest_within`` on the package's bounds.

    At most 12 bound evaluations while the answer is below 2**37 (or None);
    past that the replay bisects inside a window of relative width about
    3e-11 around the answer, so each further bit adds at most one.
    """
    return 12 + max(0, (answer or 0).bit_length() - 37)


def answer_range(answer: int | None) -> str:
    """Which range of the search an answer falls in; above 2**53 the bound's floats have plateaus."""
    if answer is None:
        return "overflow"
    if answer == 1:
        return "one"
    return "below 2**53" if answer < 2**53 else "2**53 and up"


ANSWER_RANGES = {"one", "below 2**53", "2**53 and up", "overflow"}


def scrambled_hamiltonian(L: int, n_qubits: int, key: int) -> Hamiltonian:
    """L distinct signed words with Philox weights in [0.1, 1).

    Word k is the base-4 digits of (k + 1) * 2654435761 mod 4**n_qubits; an
    odd multiplier is a bijection mod a power of two, so no word repeats and
    none is the identity.
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    weights = 0.1 + 0.9 * rng.random(L)
    negative = rng.random(L) < 0.5
    entries = []
    for k in range(L):
        v = ((k + 1) * 2654435761) % 4**n_qubits
        word = "".join("IXYZ"[(v >> (2 * q)) & 3] for q in range(n_qubits))
        w = float(weights[k])
        entries.append((-w if negative[k] else w, word))
    return Hamiltonian(entries)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_indices(indices: np.ndarray) -> str:
    """Hash of the indices as little-endian int64, whatever their stored dtype."""
    return hashlib.sha256(np.asarray(indices, dtype="<i8").tobytes()).hexdigest()


def reference_alias_tables(weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``AliasSampler``'s (prob, alias, outcomes) from Vose's two-stack loop on numpy scalars."""
    w = np.asarray(weights, dtype=float)
    p = w / math.fsum(w.tolist())
    n = w.size
    scaled = p * n
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    prob = np.ones(n)
    alias = np.arange(n, dtype=np.int64)
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
    outcomes = np.empty(2 * n, dtype=np.uint16 if n <= 1 << 16 else np.uint32)
    outcomes[0::2] = alias
    outcomes[1::2] = np.arange(n)
    return prob, alias, outcomes


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis with a global sign, ``sign * P(axes)``."""

    axes: str
    sign: int = 1

    def __post_init__(self):
        if not self.axes or self.axes.strip(PAULI_AXES):
            raise HamiltonianError(f"invalid Pauli word {self.axes!r}")
        if self.sign not in (1, -1):
            raise HamiltonianError(f"sign must be +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class Term:
    """One Hamiltonian term: strictly positive weight times a signed Pauli."""

    weight: float
    op: PauliString

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise HamiltonianError(f"term weight must be finite and > 0, got {self.weight!r}")
        if not self.op.axes.strip("I"):
            raise HamiltonianError("all-identity Pauli word is not a valid term")

    @property
    def signed_coefficient(self) -> float:
        return self.op.sign * self.weight


class ReferenceHamiltonian:
    """The object-based Hamiltonian: a tuple of validated ``Term`` objects.

    Construction merges duplicate words, drops exact zeros and builds one
    ``Term`` per surviving word; ``canonical`` and ``truncate`` build a new
    instance through ``from_terms``.
    """

    def __init__(self, entries):
        merged: dict[str, float] = {}
        n_qubits = None
        for coeff, word in entries:
            if n_qubits is None:
                n_qubits = len(word)
            elif len(word) != n_qubits:
                raise HamiltonianError(
                    f"inconsistent Pauli word length: {word!r} vs {n_qubits} qubits"
                )
            if not word or any(c not in PAULI_AXES for c in word):
                raise HamiltonianError(f"invalid Pauli word {word!r}")
            if not math.isfinite(coeff):
                raise HamiltonianError(f"non-finite coefficient {coeff!r}")
            if word in merged:
                merged[word] += coeff
            else:
                merged[word] = coeff
        terms = []
        for word, coeff in merged.items():
            if coeff == 0.0:
                continue
            sign = 1 if coeff > 0 else -1
            terms.append(Term(abs(coeff), PauliString(word, sign)))
        if not terms:
            raise HamiltonianError("Hamiltonian has no terms")
        self.n_qubits = n_qubits
        self.terms = tuple(terms)
        weights = [t.weight for t in terms]
        self.lam = math.fsum(weights)
        self.lam_max = max(weights)

    @classmethod
    def from_terms(cls, terms) -> "ReferenceHamiltonian":
        return cls((t.signed_coefficient, t.op.axes) for t in terms)

    @property
    def L(self) -> int:
        return len(self.terms)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(t.weight for t in self.terms)

    def canonical(self) -> "ReferenceHamiltonian":
        ordered = sorted(self.terms, key=lambda t: (-t.weight, t.op.axes))
        return ReferenceHamiltonian.from_terms(ordered)

    def serialize(self) -> str:
        lines = ["# hamtxt v1"]
        for term in sorted(self.terms, key=lambda t: (-t.weight, t.op.axes)):
            lines.append(f"{term.signed_coefficient!r} {term.op.axes}")
        return "\n".join(lines) + "\n"

    def truncate(self, eps: float) -> "ReferenceHamiltonian":
        if not (math.isfinite(eps) and eps > 0):
            raise HamiltonianError(f"truncation budget must be > 0, got {eps!r}")
        if eps >= self.lam:
            raise HamiltonianError(
                f"truncation budget {eps} >= lam {self.lam} would remove every term"
            )
        order = sorted(range(self.L), key=lambda i: (self.terms[i].weight, -i))
        removed: set[int] = set()
        budget = 0.0
        for i in order:
            w = self.terms[i].weight
            if budget + w > eps:
                break
            budget += w
            removed.add(i)
        kept = [t for i, t in enumerate(self.terms) if i not in removed]
        return ReferenceHamiltonian.from_terms(kept)


def reference_parse_hamiltonian(text: str) -> ReferenceHamiltonian:
    """``hamtxt v1`` parser with per-character word checks."""
    entries: list[tuple[float, str]] = []
    word_len = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise HamiltonianParseError(
                f"expected '<coefficient> <pauli-word>', got {raw.strip()!r}", line_no
            )
        coeff_text, word = fields
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise HamiltonianParseError(f"malformed coefficient {coeff_text!r}", line_no) from None
        if not math.isfinite(coeff):
            raise HamiltonianParseError(f"non-finite coefficient {coeff_text!r}", line_no)
        if any(c not in PAULI_AXES for c in word):
            raise HamiltonianParseError(f"characters outside {{I,X,Y,Z}} in {word!r}", line_no)
        if word_len is None:
            word_len = len(word)
        elif len(word) != word_len:
            raise HamiltonianParseError(
                f"word {word!r} has length {len(word)}, expected {word_len}", line_no
            )
        if set(word) == {"I"}:
            raise HamiltonianParseError(
                "all-identity term is not allowed (it only shifts energy)", line_no
            )
        entries.append((coeff, word))
    if not entries:
        raise HamiltonianParseError("no Hamiltonian terms found")
    try:
        return ReferenceHamiltonian(entries)
    except HamiltonianParseError:
        raise
    except HamiltonianError as exc:
        raise HamiltonianParseError(str(exc)) from exc


def reference_load_hamiltonian(path) -> Hamiltonian:
    """The Hamiltonian in a file as ``cli`` loaded it before it read bytes.

    The whole file is decoded as UTF-8 text with universal newlines, and
    the text goes to ``parse_hamiltonian``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise HamiltonianParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise HamiltonianParseError(f"cannot decode {path} as UTF-8: {exc}") from exc
    return parse_hamiltonian(text)


def reference_letter_codes(h: Hamiltonian) -> np.ndarray:
    """The (L, n) indices of each word's letters in PAULI_AXES, one letter at a time."""
    return np.array([[PAULI_AXES.index(c) for c in word] for word in h.words])


def reference_canonical_order(h: Hamiltonian) -> np.ndarray:
    """Term positions by weight descending, then word: one lexsort over the words."""
    return np.lexsort((np.array(h.words), -h.weights))


def wide_hamtxt(n_words: int = 5500, n_qubits: int = 30, key: int = 5000) -> str:
    """A shuffled ``hamtxt v1`` document of about 5000 terms on 30 qubits.

    Coefficients are signed; half come from the 64 dyadic values k/64, so
    many different words share a weight.  Every tenth word is split over
    two lines, every tenth cancels to exactly zero (+c and -c), every
    tenth flips sign through c and -2c, and every tenth is spread over
    three lines.  Lines are shuffled, and comments, inline comments and
    blank lines are mixed in.
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    codes = rng.integers(0, 4, size=(n_words, n_qubits)).tolist()
    dyadic = rng.integers(1, 65, size=n_words).tolist()
    uniform = (0.1 + 0.9 * rng.random(n_words)).tolist()
    negative = (rng.random(n_words) < 0.5).tolist()
    lines = []
    seen = set()
    for i in range(n_words):
        word = "".join("IXYZ"[c] for c in codes[i])
        if word in seen or set(word) == {"I"}:
            continue
        seen.add(word)
        mag = dyadic[i] / 64 if i % 2 else uniform[i]
        c = -mag if negative[i] else mag
        kind = i % 10
        if kind == 0:
            parts = [0.5 * c, 0.5 * c]
        elif kind == 3:
            parts = [c, -c]
        elif kind == 6:
            parts = [c, -2.0 * c]
        elif kind == 9:
            parts = [0.25 * c, 0.25 * c, 0.5 * c]
        else:
            parts = [c]
        lines.extend(f"{part!r} {word}" for part in parts)
    order = rng.permutation(len(lines)).tolist()
    out = ["# wide test Hamiltonian", ""]
    for k, j in enumerate(order):
        line = lines[j]
        if k % 97 == 0:
            out.append(f"# block {k}")
        if k % 89 == 0:
            out.append("")
        if k % 83 == 0:
            line += "  # inline note"
        out.append(line)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Dense superoperators in the column-stacking convention: the map
# rho -> K rho K^dag has matrix kron(conj(K), K) acting on vec(rho), and the
# normalized Choi state of a superoperator S is reshuffle(S) / d with
# reshuffle(S) = S.reshape(d, d, d, d).swapaxes(0, 3).reshape(d*d, d*d).

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_qubits(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"{n} qubits exceeds the {cap}-qubit dense cap")


def pauli_to_matrix(word: str, sign: int = 1) -> np.ndarray:
    """Dense matrix of sign * P(word) via Kronecker products."""
    _check_qubits(len(word), MAX_CHANNEL_QUBITS)
    out = PAULI_MATRICES[word[0]].copy()
    for c in word[1:]:
        out = np.kron(out, PAULI_MATRICES[c])
    return sign * out


def signed_paulis(h: Hamiltonian) -> list[np.ndarray]:
    """Dense s_j P_j for each term, s_j the sign of its coefficient."""
    return [
        pauli_to_matrix(word, 1 if c > 0 else -1)
        for word, c in zip(h.words, h.coefficients.tolist())
    ]


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense sum_j h_j * sign_j * P_j."""
    _check_qubits(h.n_qubits, MAX_CHANNEL_QUBITS)
    dim = 2**h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for weight, p in zip(h.weights.tolist(), signed_paulis(h)):
        out += weight * p
    return out


def unitary_exp(h_matrix: np.ndarray, theta: float) -> np.ndarray:
    """exp(i theta H) for Hermitian H via eigendecomposition, both checked to 1e-10."""
    h_matrix = np.asarray(h_matrix, dtype=complex)
    if np.max(np.abs(h_matrix - h_matrix.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian to 1e-10")
    w, v = np.linalg.eigh(h_matrix)
    u = (v * np.exp(1j * theta * w)) @ v.conj().T
    dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if dev > 1e-10:
        raise ValueError(f"exponential lost unitarity (deviation {dev:.2e})")
    return u


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(matrix).T.reshape(-1)


def unvec(vector: np.ndarray) -> np.ndarray:
    v = np.asarray(vector).reshape(-1)
    d = int(round(math.sqrt(v.size)))
    return v.reshape(d, d).T


def unitary_channel(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    return np.kron(u.conj(), u)


def apply_channel(superop: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return unvec(superop @ vec(rho))


def qdrift_channel(h: Hamiltonian, tau: float) -> np.ndarray:
    """Single-step mixing channel sum_j (h_j/lam) e^{i tau H_j} rho e^{-i tau H_j}."""
    _check_qubits(h.n_qubits, MAX_CHANNEL_QUBITS)
    dim = 2**h.n_qubits
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for weight, p in zip(h.weights.tolist(), signed_paulis(h)):
        out += (weight / h.lam) * unitary_channel(unitary_exp(p, tau))
    return out


def segment_channel(h: Hamiltonian, t: float, n: int) -> np.ndarray:
    """Target channel of one segment, rho -> e^{i t H / N} rho e^{-i t H / N}."""
    _check_qubits(h.n_qubits, MAX_CHANNEL_QUBITS)
    return unitary_channel(unitary_exp(hamiltonian_matrix(h), t / n))


def choi_state(superop: np.ndarray) -> np.ndarray:
    """Normalized (trace 1) Choi density matrix of a superoperator."""
    s = np.asarray(superop)
    d = int(round(math.sqrt(s.shape[0])))
    return s.reshape(d, d, d, d).swapaxes(0, 3).reshape(d * d, d * d) / d


def trace_norm(matrix: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(np.asarray(matrix), compute_uv=False)))


def choi_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance between the channels' Choi states (dense SVD)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"superoperator shape mismatch: {a.shape} vs {b.shape}")
    return 0.5 * trace_norm(choi_state(a) - choi_state(b))


def trace_preservation_error(superop: np.ndarray) -> float:
    """max |S^dag vec(I) - vec(I)|, the deviation of the dual map from unital."""
    s = np.asarray(superop)
    d = int(round(math.sqrt(s.shape[0])))
    id_vec = vec(np.eye(d, dtype=complex))
    return float(np.max(np.abs(s.conj().T @ id_vec - id_vec)))


def is_trace_preserving(superop: np.ndarray, tol: float = 1e-10) -> bool:
    return trace_preservation_error(superop) <= tol


def choi_min_eigenvalue(superop: np.ndarray) -> float:
    """Smallest Choi eigenvalue; >= -1e-10 certifies complete positivity."""
    j = choi_state(superop)
    return float(np.min(np.linalg.eigvalsh(0.5 * (j + j.conj().T))))


def dense_verify_bound(h, t: float, n_list, tau_scale: float = 1.0) -> list:
    """``channels.verify_bound`` measured on dense superoperators."""
    rows = []
    for n in n_list:
        target = segment_channel(h, t, n)
        mix = qdrift_channel(h, tau_scale * h.lam * t / n)
        rows.append(BoundRow(int(n), choi_distance(target, mix), segment_error_bound(h.lam, t, n)))
    return rows


def reference_probe_states(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``channels._probe_states`` one state at a time: two draws and one norm per state."""
    states = []
    for _ in range(count):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        states.append(psi / np.linalg.norm(psi))
    return np.array(states)


def reference_decay_slope(rows) -> float:
    """``channels.decay_slope`` as exact least squares: the same float logs, summed as fractions.

    The only rounding is of the final quotient to a float.
    """
    pts = [(Fraction(math.log(r.N)), Fraction(math.log(r.d_lower))) for r in rows if r.d_lower > 0]
    if len({x for x, _ in pts}) < 2:
        return math.nan
    mean_x = sum(x for x, _ in pts) / len(pts)
    mean_y = sum(y for _, y in pts) / len(pts)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in pts)
    sxx = sum((x - mean_x) ** 2 for x, _ in pts)
    return float(sxy / sxx)


def dense_composition_check(h, t: float, n: int, trials: int = 20, seed: int = 1234) -> list:
    """``channels.composition_check`` through a ``matrix_power`` of the step superoperator."""
    _check_qubits(h.n_qubits, MAX_POWER_QUBITS)
    dim = 2**h.n_qubits
    target = unitary_channel(unitary_exp(hamiltonian_matrix(h), t))
    delta = np.linalg.matrix_power(qdrift_channel(h, h.lam * t / n), n) - target
    budget = total_error_bound(h.lam, t, n)
    rng = rng_from_seed(seed)
    out = []
    for i in range(trials):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        diff = apply_channel(delta, np.outer(psi, psi.conj()))
        d_tr = 0.5 * trace_norm(diff)
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi /= np.linalg.norm(phi)
        expval_err = abs(np.trace(np.outer(phi, phi.conj()) @ diff))
        out.append(CompositionTrial(i, d_tr, budget, float(expval_err), 2.0 * d_tr))
    return out


def reference_pauli_steps(h, r: np.ndarray, n: int, c: float, s: float, dtype=np.float64) -> np.ndarray:
    """S^n r by n applications of the step S at c = cos tau, s = sin tau, as
    ``channels._pauli_steps`` did before it summed a binomial series.

    Row q of S holds c^2 + s^2 sum_k p_k chi_k(q) at q and
    2 c s s_k p_k i^{e+1} at each anticommuting partner.  When L + 1 <= d a
    step gathers the rows through their table; otherwise it is one product
    with the whole matrix.  With ``dtype=np.longdouble`` the weights are
    formed from c, s and the float probabilities in extended precision, and
    the steps carried in it.
    """
    dim = 2**h.n_qubits
    anti, e, partner = _pauli_products(h.n_qubits, *_letter_masks(h))
    c, s = dtype(c), dtype(s)
    table = np.concatenate((np.arange(dim * dim)[:, None], partner), axis=1)
    weights = np.empty((dim * dim, 1, h.L + 1), dtype)
    weights[:, 0, 0] = c * c + (s * s) * ((1 - 2 * anti) @ (h.weights / h.lam).astype(dtype))
    weights[:, 0, 1:] = (2 * c * s) * (anti * (1 - ((e + 1) & 2))) * (h.coefficients / h.lam).astype(dtype)
    r = r.astype(dtype)
    if h.L + 1 <= dim:
        gathered = np.empty((*table.shape, r.shape[1]), dtype)
        for _ in range(n):
            np.take(r, table, axis=0, out=gathered, mode="wrap")
            r = np.matmul(weights, gathered).reshape(dim * dim, -1)
    else:
        step = np.zeros((dim * dim, dim * dim), dtype)
        step[np.arange(dim * dim)[:, None], table] = weights[:, 0]
        for _ in range(n):
            r = step @ r
    return r


def circuit_unitary(circuit) -> np.ndarray:
    """Dense product unitary of a compiled gate list (first gate acts first)."""
    h = circuit.source
    _check_qubits(h.n_qubits, MAX_POWER_QUBITS)
    gates = [unitary_exp(p, circuit.tau) for p in signed_paulis(h)]
    u = np.eye(2**h.n_qubits, dtype=complex)
    for j in circuit.term_indices.tolist():
        u = gates[j] @ u
    return u


def empirical_channel(h: Hamiltonian, t: float, eps: float, seeds) -> np.ndarray:
    """Seed-averaged superoperator of compiled circuits; converges to E^N."""
    if len(seeds) == 0:
        raise ValueError("seed list must be non-empty")
    _check_qubits(h.n_qubits, MAX_POWER_QUBITS)
    dim = 2**h.n_qubits
    acc = np.zeros((dim * dim, dim * dim), dtype=complex)
    for seed in seeds:
        acc += unitary_channel(circuit_unitary(compile_circuit(h, t, eps, seed)))
    return acc / len(seeds)

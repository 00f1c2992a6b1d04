"""Randomized product-formula compilation.

Implements the qDRIFT gate-sequence emitter: given H = sum_j h_j H_j, it
draws N gates i.i.d. with probability p_j = h_j / lam and assigns every
gate the identical angle tau = lam * t / N.  The gate count N comes from
either the quadratic bound ceil(2 (lam t)^2 / eps) ("approx" mode) or the
smallest N whose rigorous channel-error bound (2 lam^2 t^2 / N) e^{2 lam t / N}
falls below eps ("exact" mode, the default), both solved in ``trotter``.

Reproducibility contract: sampling uses numpy's counter-based Philox
bit generator keyed directly with the 64-bit seed, and draws one uniform
per gate through ``Generator.random``.  Identical (Hamiltonian canonical
form, t, eps, seed, mode) produce bit-identical circuits on every
platform.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .hamiltonian import Hamiltonian, exact_sum
from .trotter import _check_positive, gate_count_approx, gate_count_exact
from .weights import Record

MAX_SEED = 2**64 - 1
# Gates are drawn, marked and serialized in blocks of this many, so the
# memory a compile needs beyond its index array does not grow with N.  A
# block's buffers (uniforms, keys, a text piece and its encoded copy) stay
# at a few hundred KB, so each block reuses the heap pages of the one
# before.  Multi-MB buffers (2^16-gate blocks) go back to the kernel after
# each block and fault in again: about 10,000 minor faults per 4e5 gates.
_CHUNK = 1 << 12


def check_seed(seed: int) -> int:
    """The seed as an int; ValueError unless it is an integer in [0, 2**64)."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not (0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator keyed with the 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def _index_dtype(size: int) -> np.dtype:
    """Narrowest unsigned dtype holding every index below ``size``."""
    return np.dtype(np.uint16 if size <= 1 << 16 else np.uint32)


def _deficit_walk(deficits: list[float], large: list[float]) -> tuple[int, list[int], list[float]]:
    """Vose's pairing of small columns with large ones, as one pass over the deficits.

    Returns how many small columns were paired, and for each large column
    that retired with a partner after it, the index of the small column at
    which it retired and its scaled weight then.  The subtractions are
    those of the stack form, in its order, so every float is the same.
    """
    cuts: list[int] = []
    left: list[float] = []
    if not large:
        return 0, cuts, left
    last = len(large) - 1
    j = 0
    x = large[0]
    for i, deficit in enumerate(deficits):
        x -= deficit
        while x < 1.0:
            if j == last:
                return i + 1, cuts, left
            cuts.append(i)
            left.append(x)
            j += 1
            x = large[j] - (1.0 - x)
    return len(deficits), cuts, left


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
        self._p = w / exact_sum(w)
        n = w.size
        scaled = self._p * n
        below = scaled < 1.0
        # Vose pairs the small columns, highest index first, with the large
        # ones, also highest first.  The current large column absorbs each
        # deficit 1 - scaled[s]; once it drops below 1 it becomes the next
        # small column, and the next large one absorbs its deficit first.
        small = np.flatnonzero(below)[::-1]
        large = np.flatnonzero(~below)[::-1]
        paired, cuts, left = _deficit_walk((1.0 - scaled[small]).tolist(), scaled[large].tolist())
        self._prob = np.ones(n)
        self._alias = np.arange(n, dtype=np.int64)
        # The i-th paired small column went to the large column after the
        # ones that retired before it (cuts < i), and the j-th retired large
        # column to large column j + 1.  The walk runs on Python floats,
        # which round exactly as numpy float64 scalars do.  Leftovers of
        # either kind are 1 up to roundoff and keep prob = 1.
        small = small[:paired]
        self._prob[small] = scaled[small]
        self._alias[small] = large[np.searchsorted(cuts, np.arange(paired))]
        retired = large[: len(cuts)]
        self._prob[retired] = left
        self._alias[retired] = large[1 : len(cuts) + 1]
        # Entry 2j is what column j draws when its coin fails (its alias),
        # entry 2j + 1 what it draws when the coin holds (j itself).
        self._outcomes = np.empty(2 * n, dtype=_index_dtype(n))
        self._outcomes[0::2] = self._alias
        self._outcomes[1::2] = np.arange(n)

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized target distribution w / sum(w)."""
        return self._p.copy()

    @property
    def size(self) -> int:
        return self._p.size

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` indices, one uniform each, in the narrowest unsigned dtype.

        Uniforms are drawn in blocks of ``_CHUNK`` (2**12).  The blocks
        consume the generator's stream in order, so the indices equal those
        from a single ``rng.random(count)`` call.  The dtype is uint16 for up
        to 65536 weights, else uint32.
        """
        size = self.size
        out = np.empty(count, dtype=_index_dtype(size))
        for start in range(0, count, _CHUNK):
            x = rng.random(min(_CHUNK, count - start)) * size
            # x < size, so the column floor(x) is at most size - 1.  A uniform
            # is at most 1 - 2^-53, and (1 - 2^-53) * size lies size * 2^-53
            # below size.  For size = 2^e that is one float spacing, so the
            # product is exact; for 2^e < size < 2^(e+1) it is more than half
            # the spacing 2^(e-52), so the product rounds below size.  Smaller
            # uniforms round no higher.
            whole = np.floor(x)
            x -= whole  # exact: the fractional part
            key = whole.astype(np.int64)
            coin = x < np.take(self._prob, key)
            key <<= 1
            key |= coin  # 2 * column + coin indexes the outcome table
            np.take(self._outcomes, key, out=out[start : start + x.size])
        return out


class CircuitMeta(Record):
    __slots__ = ("seed", "N", "t", "eps", "lam", "mode", "controlled")

    def __init__(self, seed: int, N: int, t: float, eps: float, lam: float, mode: str, controlled: bool = False):
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "controlled", controlled)


class Circuit:
    """Ordered gate list sharing one angle tau = lam * t / N.

    Gate indices are stored in the narrowest unsigned dtype that holds
    every term index of ``source`` (uint16 for up to 65536 terms, else
    uint32), so a circuit costs 2 or 4 bytes per gate.  They are stored
    read-only, and copied unless the given array is read-only, owns its
    data and already has that dtype.  ``term_indices`` returns an int64
    copy.  The indices must form a 1-d integer array of ``meta.N`` entries,
    each in [0, source.L); anything else raises ValueError.
    """

    __slots__ = ("_indices", "tau", "meta", "source")

    def __init__(self, term_indices: np.ndarray, tau: float, meta: CircuitMeta, source: Hamiltonian):
        indices = np.asarray(term_indices)
        if indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(
                f"term_indices must be a 1-d integer array, got shape {indices.shape} "
                f"and dtype {indices.dtype}"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= source.L):
            gate = int(np.flatnonzero((indices < 0) | (indices >= source.L))[0])
            raise ValueError(
                f"term index {indices[gate]} at gate {gate} is out of range "
                f"for a {source.L}-term Hamiltonian"
            )
        if indices.size != meta.N:
            raise ValueError(f"meta.N={meta.N} but {indices.size} term indices were given")
        dtype = _index_dtype(source.L)
        if indices.flags.writeable or not indices.flags.owndata or indices.dtype != dtype:
            indices = indices.astype(dtype)
            indices.flags.writeable = False
        self._indices = indices
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
            and self.source == other.source
        )

    def _line_table(self) -> tuple[str, np.ndarray]:
        """The header, and an object table of the drawn terms' gate lines indexed by term.

        The drawn terms are found one ``_CHUNK``-gate block (2**12) at a
        time, and their lines are built ``_CHUNK`` terms at a time, so only
        one chunk's text is alive beside the table.  The slots of terms
        never drawn stay ``None``.
        """
        tau_text = format(self.tau, ".17g")
        head = f"# qdrift-circ v1\n# seed={self.meta.seed}\n# N={self.meta.N}\n# tau={tau_text}\n"
        h = self.source
        seen = np.zeros(h.L, dtype=bool)
        for start in range(0, self._indices.size, _CHUNK):
            seen[self._indices[start : start + _CHUNK]] = True
        drawn = np.flatnonzero(seen)
        table = np.empty(h.L, dtype=object)
        op = "CROT" if self.meta.controlled else "ROT"
        for start in range(0, drawn.size, _CHUNK):
            terms = drawn[start : start + _CHUNK]
            table[terms] = _gate_lines(h, terms, f"{op} ", f" {tau_text}\n").splitlines(keepends=True)
        return head, table

    def iter_text(self) -> Iterator[str]:
        """Yield the ``qdrift-circ v1`` text in pieces: the header, then one piece per ``_CHUNK`` gates.

        A piece is the join of one gather from the line table over one
        block, so no Python int is made per gate.  Memory beyond the index
        array is L flags, L pointers, the lines of the drawn terms and one
        piece of text, a few hundred KB at most line widths.
        """
        head, table = self._line_table()
        yield head
        for start in range(0, self._indices.size, _CHUNK):
            yield "".join(table[self._indices[start : start + _CHUNK]].tolist())

    def to_text(self) -> str:
        """Serialize as ``qdrift-circ v1``: header comments then one gate per line.

        The text is one join over one gather of the line table, so the peak
        is the text and one pointer per gate.
        """
        head, table = self._line_table()
        lines = table[self._indices].tolist()
        lines.insert(0, head)
        return "".join(lines)


def _gate_lines(h: Hamiltonian, drawn: np.ndarray, prefix: str, tail: str) -> str:
    """The gate lines ``<prefix><j> <sign><word><tail>`` of the ascending terms ``drawn``, as one str.

    The lines are written into one uint8 buffer, the terms with the same
    number of decimal digits in j at a time: each such group is a table of
    equal-width rows, filled a column range at a time.
    """
    if not drawn.size:
        return ""
    n = h.n_qubits
    letters = h._letter_bytes()
    signs = np.where(h.coefficients[drawn] > 0, ord("+"), ord("-"))
    prefix_bytes = np.frombuffer(prefix.encode("ascii"), np.uint8)
    tail_bytes = np.frombuffer(tail.encode("ascii"), np.uint8)
    p = prefix_bytes.size
    digits = len(str(drawn[-1]))
    # drawn is ascending, so the terms with k digits are one slice of it.
    cuts = [0, *np.searchsorted(drawn, [10**k for k in range(1, digits)]).tolist(), drawn.size]
    widths = [p + k + 2 + n + tail_bytes.size for k in range(1, digits + 1)]
    buffer = np.empty(sum((b - a) * w for a, b, w in zip(cuts, cuts[1:], widths)), dtype=np.uint8)
    offset = 0
    for k, a, b, width in zip(range(1, digits + 1), cuts, cuts[1:], widths):
        group = drawn[a:b]
        rows = buffer[offset : offset + group.size * width].reshape(group.size, width)
        offset += group.size * width
        rows[:, :p] = prefix_bytes
        value = group
        for column in range(p + k - 1, p - 1, -1):
            value, digit = np.divmod(value, 10)
            rows[:, column] = digit + ord("0")
        rows[:, p + k] = ord(" ")
        rows[:, p + k + 1] = signs[a:b]
        rows[:, p + k + 2 : p + k + 2 + n] = letters[group]
        rows[:, p + k + 2 + n :] = tail_bytes
    return str(buffer, "ascii")


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
    rng = rng_from_seed(seed)
    if mode not in ("exact", "approx"):
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    h = h.canonical()
    n = (gate_count_exact if mode == "exact" else gate_count_approx)(h.lam, t, eps)
    if n > 2**31:
        raise ValueError(
            f"circuit would need N={n} gates; materializing it is impractical, "
            "use the cost engine for this regime"
        )
    tau = h.lam * t / n
    indices = AliasSampler(h.weights).sample_many(rng, n)
    indices.flags.writeable = False
    meta = CircuitMeta(seed=int(seed), N=n, t=t, eps=eps, lam=h.lam, mode=mode, controlled=controlled)
    return Circuit(indices, tau, meta, h)


def elementary_gate_estimate(circuit: Circuit) -> dict[str, int]:
    """Rotation / control-X footprint after expanding controlled rotations."""
    n = len(circuit)
    if circuit.meta.controlled:
        return {"rotations": 2 * n, "control_x": 2 * n}
    return {"rotations": n, "control_x": 0}

"""Weighted Pauli-sum Hamiltonians: parsing, normalization, truncation.

A Hamiltonian is an ordered list of Pauli words with signed coefficients.
Each term's weight is the absolute value of its coefficient, so the weight
vector is always a valid (unnormalized) probability distribution.  The
aggregates every downstream consumer needs are cached: ``L`` (term count),
``lam`` (sum of weights, the l1 norm) and ``lam_max`` (largest single
weight).

Text format ``hamtxt v1``: one ``<coefficient> <pauli-word>`` pair per
line, ``#`` starts a comment, blank lines allowed, all words the same
length over {I, X, Y, Z}.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .weights import HamiltonianError, HamiltonianParseError, WeightProfile

PAULI_AXES = "IXYZ"

_BLOCK_LINES = 4096  # hamtxt lines split and checked at a time
_SCAN_BYTES = 1 << 22  # bytes of a document searched for newlines at a time
_LETTERS = PAULI_AXES.encode("ascii")


def _check_term(weight: float, word: str) -> None:
    if not (math.isfinite(weight) and weight > 0):
        raise HamiltonianError(f"term weight must be finite and > 0, got {weight!r}")
    if not word.strip("I"):
        # The identity component only shifts energy and breaks the
        # norm-1 term invariant; callers must strip it.
        raise HamiltonianError("all-identity Pauli word is not a valid term")


class _Columns(NamedTuple):
    """Checked input for ``Hamiltonian``: a read-only ``S<n_qubits>`` column
    of distinct words over {I, X, Y, Z} and their finite float64
    coefficients."""

    n_qubits: int
    column: np.ndarray
    coeffs: np.ndarray


def _word_column(words: list[str], n_qubits: int) -> np.ndarray:
    """The equal-length ASCII ``words`` as one read-only ``S<n_qubits>`` column."""
    return np.frombuffer("".join(words).encode("ascii"), dtype=f"S{n_qubits}")


def _decoded(column: np.ndarray) -> tuple[str, ...]:
    """The words of an ``S<n>`` column as a tuple of str."""
    text = column.tobytes().decode("ascii")
    n = column.itemsize
    return tuple([text[i : i + n] for i in range(0, len(text), n)])


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum`` of a 1-D native float64 array.

    fsum is correctly rounded, and a memoryview hands it one float at a
    time, so no list of every float is made.
    """
    return math.fsum(memoryview(values))


# Multiplier of the 64-bit mix in ``_word_mixes``; odd, so each step is a bijection.
_MIX = np.uint64(0x100000001B3)


def _word_mixes(column: np.ndarray) -> np.ndarray:
    """Each word of ``column`` mixed into one uint64 from its 8-byte pieces.

    Equal words mix equal; words of at most 8 letters mix equal only if
    they are equal, and longer distinct words almost never do.
    """
    n = column.itemsize
    padded = np.zeros((column.size, -(-n // 8) * 8), dtype=np.uint8)
    padded[:, :n] = column.view(np.uint8).reshape(column.size, n)
    pieces = padded.view(np.uint64)
    mixed = pieces[:, 0].copy()
    for q in range(1, pieces.shape[1]):
        mixed *= _MIX
        mixed ^= pieces[:, q]
    return mixed


def _may_repeat(mixes: np.ndarray) -> bool:
    """True if two of the words' ``_word_mixes`` agree; sorts ``mixes`` in place.

    False means every word is distinct.  Distinct words almost never mix
    equal, so a True is checked by the caller's exact merge.
    """
    mixes.sort()
    return bool((mixes[1:] == mixes[:-1]).any())


def _checked_columns(entries: Iterable[tuple[float, str]]) -> _Columns:
    """Merged columns of ``(coefficient, word)`` entries; the first bad entry raises.

    Repeated words add their coefficients as given, before the sums are
    converted to float64.
    """
    merged: dict = {}
    n_qubits = None
    for coeff, word in entries:
        if n_qubits is None:
            n_qubits = len(word)
        elif len(word) != n_qubits:
            raise HamiltonianError(
                f"inconsistent Pauli word length: {word!r} vs {n_qubits} qubits"
            )
        if not word or word.strip(PAULI_AXES):
            raise HamiltonianError(f"invalid Pauli word {word!r}")
        if not math.isfinite(coeff):
            raise HamiltonianError(f"non-finite coefficient {coeff!r}")
        if word in merged:
            merged[word] += coeff
        else:
            merged[word] = coeff
    if not merged:
        raise HamiltonianError("Hamiltonian has no terms")
    coeffs = np.fromiter(merged.values(), dtype=float, count=len(merged))
    return _Columns(n_qubits, _word_column(list(merged), n_qubits), coeffs)


class Hamiltonian:
    """Normalized weighted Pauli sum with cached (L, lam, lam_max).

    Construction merges duplicate Pauli words by signed-coefficient
    addition (exact zeros are dropped) and rejects all-identity words.
    Terms keep the order in which their words first appear.
    ``parse_hamiltonian`` passes columns it has already checked and
    merged, which skip the per-entry checks.

    The columns are the only representation: a read-only ``S<n_qubits>``
    numpy column of the Pauli words, and ``coefficients``, a read-only
    float64 array of signed coefficients; ``weights`` is their absolute
    value, and ``lam`` and ``lam_max`` are computed once from it.  ``words``
    decodes the column to a tuple of str on first use.  Term k is the
    operator ``coefficients[k] * P(words[k])``, drawn by qDRIFT with
    probability ``weights[k] / lam``.  Instances are immutable and safe to
    share across threads (two threads may both decode ``words``; they get
    equal tuples).
    """

    __slots__ = (
        "_n_qubits", "_column", "_words", "_coeffs", "_weights", "_lam", "_lam_max", "_canonical"
    )

    def __init__(self, entries: Iterable[tuple[float, str]]):
        if not isinstance(entries, _Columns):
            entries = _checked_columns(entries)
        n_qubits, column, coeffs = entries
        keep = coeffs != 0.0
        if not keep.all():
            column = column[keep]
            coeffs = coeffs[keep]
        weights = np.abs(coeffs)
        if not column.size:
            raise HamiltonianError("Hamiltonian has no terms")
        if not np.isfinite(weights).all() or (column == b"I" * n_qubits).any():
            # Check each term in order, so the first failing term
            # raises its usual error.
            for weight, word in zip(weights.tolist(), _decoded(column)):
                _check_term(weight, word)
        try:
            lam = exact_sum(weights)
        except OverflowError:
            raise HamiltonianError(
                f"l1 norm lam of the {column.size} term weights overflows a float"
            ) from None
        self._set(n_qubits, column, coeffs, weights, lam, float(weights.max()))

    def _set(self, n_qubits, column, coeffs, weights, lam, lam_max) -> None:
        for array in (column, coeffs, weights):
            array.flags.writeable = False
        self._n_qubits = n_qubits
        self._column = column
        self._words = None
        self._coeffs = coeffs
        self._weights = weights
        self._lam = lam
        self._lam_max = lam_max
        self._canonical = False  # set once the terms are known to be in canonical order

    def _select(self, index: np.ndarray, lam: float, lam_max: float) -> "Hamiltonian":
        """New instance holding the terms at ``index``; skips validation and merging."""
        out = Hamiltonian.__new__(Hamiltonian)
        out._set(
            self._n_qubits,
            self._column[index],
            self._coeffs[index],
            self._weights[index],
            lam,
            lam_max,
        )
        return out

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def words(self) -> tuple[str, ...]:
        """Pauli word of each term."""
        if self._words is None:
            self._words = _decoded(self._column)
        return self._words

    def _letter_bytes(self) -> np.ndarray:
        """The words' ASCII letters as a read-only (L, n_qubits) uint8 array, a view of the column."""
        return self._column.view(np.uint8).reshape(self._column.size, self._n_qubits)

    @property
    def coefficients(self) -> np.ndarray:
        """Signed coefficient of each term (read-only float64)."""
        return self._coeffs

    @property
    def weights(self) -> np.ndarray:
        """Weight of each term, the absolute coefficient (read-only float64)."""
        return self._weights

    @property
    def L(self) -> int:
        return self._column.size

    @property
    def lam(self) -> float:
        """Sum of term weights (l1 norm); upper bounds the operator norm."""
        return self._lam

    @property
    def lam_max(self) -> float:
        """Largest single term weight."""
        return self._lam_max

    def profile(self) -> WeightProfile:
        return WeightProfile(self.L, self._lam, self._lam_max)

    def __len__(self) -> int:
        return self._column.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        return (
            self._n_qubits == other._n_qubits
            and np.array_equal(self._column, other._column)
            and np.array_equal(self._coeffs, other._coeffs)
        )

    def __repr__(self) -> str:
        return (
            f"Hamiltonian(n_qubits={self._n_qubits}, L={self.L}, "
            f"lam={self._lam!r}, lam_max={self._lam_max!r})"
        )

    def _canonical_order(self) -> np.ndarray:
        """Term positions by weight descending, then word ascending."""
        # Distinct weights alone fix the order, so any sort will do; only
        # runs of equal weights are then re-sorted by (weight, word).
        # Equal-length ASCII words sort as bytes the way they sort as str.
        negated = -self._weights
        order = np.argsort(negated)
        ranked = negated[order]
        tied = ranked[1:] == ranked[:-1]
        if tied.any():
            in_run = np.zeros(len(order), dtype=bool)
            in_run[1:] = tied
            in_run[:-1] |= tied
            run = order[in_run]
            order[in_run] = run[np.lexsort((self._column[run], ranked[in_run]))]
        return order

    def canonical(self) -> "Hamiltonian":
        """The terms in canonical order: weight descending, then word.

        Returns the instance itself when its terms are already in that
        order, and a copy otherwise.  Either result records that it is
        canonical, so ``canonical()`` on it sorts nothing.
        """
        if not self._canonical:
            order = self._canonical_order()
            if not (order[1:] > order[:-1]).all():  # an ascending permutation is the identity
                out = self._select(order, self._lam, self._lam_max)
                out._canonical = True
                return out
            self._canonical = True
        return self

    def serialize(self) -> str:
        """Canonical ``hamtxt v1`` text; parse(serialize(h)) == h.canonical()."""
        order = self._canonical_order().tolist()
        coeffs, words = self._coeffs.tolist(), self.words
        lines = ["# hamtxt v1"]
        lines.extend(f"{coeffs[i]!r} {words[i]}" for i in order)
        return "\n".join(lines) + "\n"

    def truncate(self, eps: float) -> "Hamiltonian":
        """Drop the smallest terms whose removed weight stays <= eps.

        Removal is greedy in ascending weight order; ties are broken by
        input order with earlier terms kept longer.  Requires eps < lam so
        the result is never empty.
        """
        if not (math.isfinite(eps) and eps > 0):
            raise HamiltonianError(f"truncation budget must be > 0, got {eps!r}")
        if eps >= self._lam:
            raise HamiltonianError(
                f"truncation budget {eps} >= lam {self._lam} would remove every term"
            )
        order = np.lexsort((-np.arange(self.L), self._weights))
        # cumsum adds in order, so each prefix is the removed weight so far.
        removed = int(np.cumsum(self._weights[order]).searchsorted(eps, side="right"))
        if removed == self.L:
            raise HamiltonianError("Hamiltonian has no terms")
        kept = np.sort(order[removed:])
        kept_weights = self._weights[kept]
        return self._select(kept, exact_sum(kept_weights), float(kept_weights.max()))


def random_hamiltonian(rng: np.random.Generator, n_qubits: int) -> Hamiltonian:
    """Random Pauli sum of 2 to 8 distinct non-identity words with lam in [0.5, 2]."""
    n_words = 4**n_qubits - 1
    count = int(rng.integers(2, min(8, n_words) + 1))
    picks = rng.choice(n_words, size=count, replace=False)
    entries = []
    for p in picks:
        word = ""
        value = int(p) + 1  # skip the all-identity word at 0
        for _ in range(n_qubits):
            word += PAULI_AXES[value % 4]
            value //= 4
        entries.append((float(rng.uniform(0.1, 1.0)), word))
    target_lam = float(rng.uniform(0.5, 2.0))
    scale = target_lam / math.fsum(w for w, _ in entries)
    return Hamiltonian([(w * scale, word) for w, word in entries])


def parse_hamiltonian(text: str | bytes) -> Hamiltonian:
    """Parse ``hamtxt v1`` text into a normalized Hamiltonian.

    ``text`` is a str, or the bytes of an ASCII document as read from a
    file (other bytes raise UnicodeDecodeError).  ``\\r\\n`` and a lone
    ``\\r`` end a line as ``\\n`` does.  Raises HamiltonianParseError
    (with line number) on malformed coefficients, bad Pauli characters,
    inconsistent word lengths, or an empty term list.  An ASCII document is
    split as bytes a block of ``_BLOCK_LINES`` lines at a time; other text,
    text holding a control character besides tab and the line ends, and
    text with a bad line are parsed line by line.
    """
    columns = _parse_blocks(text) if text.isascii() else None
    if columns is None:
        columns = _parse_lines(text if isinstance(text, str) else text.decode("ascii"))
    try:
        return Hamiltonian(columns)
    except HamiltonianError as exc:
        raise HamiltonianParseError(str(exc)) from exc


def _ascii_bytes(document: str | bytes, start: int, stop: int) -> bytes:
    """``document[start:stop]`` of an ASCII str or bytes, as bytes."""
    piece = document[start:stop]
    return piece.encode("ascii") if isinstance(piece, str) else piece


def _blocks(document: str | bytes) -> Iterator[tuple[bytes, np.ndarray]]:
    """Each block of ``_BLOCK_LINES`` lines of an ASCII document, as bytes, and its newline offsets.

    A block ends after a newline; the last may end without one.  The
    newlines are found ``_SCAN_BYTES`` of the document at a time, so a str
    is never encoded whole.
    """
    size = len(document)
    start, found = 0, np.empty(0, dtype=np.intp)
    for lo in range(0, size, _SCAN_BYTES):
        codes = np.frombuffer(_ascii_bytes(document, lo, lo + _SCAN_BYTES), np.uint8)
        found = np.concatenate((found, lo + np.flatnonzero(codes == 10)))
        del codes  # the window is freed before its blocks are parsed
        for first in range(0, found.size - _BLOCK_LINES + 1, _BLOCK_LINES):
            breaks = found[first : first + _BLOCK_LINES]
            stop = int(breaks[-1]) + 1
            yield _ascii_bytes(document, start, stop), breaks - start
            start = stop
        found = found[found.size - found.size % _BLOCK_LINES :]
    if start < size:
        yield _ascii_bytes(document, start, size), found - start


def _parse_blocks(document: str | bytes) -> _Columns | None:
    """Columns of an ASCII document; None if a block fails a check or no term is found.

    The word, coefficient and word-mix columns are allocated once, with a
    slot for each line that can hold a term, and filled a block at a time.
    """
    newline, cr, crlf = ("\n", "\r", "\r\n") if isinstance(document, str) else (b"\n", b"\r", b"\r\n")
    lines = document.count(newline) + 1
    if cr in document:  # \r\n and a lone \r end a line, as in str.splitlines
        lines += document.count(cr) - document.count(crlf)
    column = coeffs = mixes = None
    filled = 0
    for block, breaks in _blocks(document):
        if b"\r" in block:  # a block ends after a \n, so it holds each \r\n whole
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            breaks = None
        if b"#" in block:
            block = re.sub(rb"#[\t -\x7f]*", b"", block)
            breaks = None
        codes = np.frombuffer(block, np.uint8)
        if breaks is None:
            breaks = np.flatnonzero(codes == 10)
        # Any other control byte (\v, \f and \x1c-\x1e end a line for
        # str.splitlines) sends the document to the line path; a comment stops at one.
        if np.count_nonzero(codes < 32) != breaks.size + np.count_nonzero(codes == 9):
            return None
        tokens = block.split()
        if not tokens:
            continue
        # Tokens start and end where a space, tab or newline (the only bytes
        # <= 32 left) meets another byte; the block's ends count as spaces.
        # Each line with a token must hold a coefficient and a word.
        space = np.concatenate(([True], codes <= 32, [True]))
        edges = np.flatnonzero(space[:-1] != space[1:])
        line = breaks.searchsorted(edges[::2])
        if len(tokens) % 2 or (line[::2] != line[1::2]).any() or (line[2::2] == line[1:-1:2]).any():
            return None
        lengths = edges[3::4] - edges[2::4]
        if column is None:
            n_qubits = int(lengths[0])
            # A term line takes at least n_qubits + 3 bytes with its line end.
            size = min(lines, (len(document) + 1) // (n_qubits + 3))
            column = np.empty(size, dtype=f"S{n_qubits}")
            coeffs = np.empty(size)
            mixes = np.empty(size, dtype=np.uint64)
        words = b"".join(tokens[1::2])
        try:
            block_coeffs = np.fromiter(map(float, tokens[::2]), dtype=float, count=lengths.size)
        except ValueError:
            return None
        del tokens, space, edges, line  # freed before the next block's split
        if (lengths != n_qubits).any() or words.translate(None, _LETTERS):
            return None
        words = np.frombuffer(words, f"S{n_qubits}")
        if not np.isfinite(block_coeffs).all() or (words == b"I" * n_qubits).any():
            return None
        stop = filled + words.size
        column[filled:stop] = words
        coeffs[filled:stop] = block_coeffs
        mixes[filled:stop] = _word_mixes(words)
        filled = stop
    if not filled:
        return None
    # Views of the filled slots; the columns are copied only if most slots
    # held no term.  (Shrinking them in place with realloc left the heap
    # fragmented: RSS grew by about 0.14 MB a compile over 60 compiles.)
    column, coeffs, mixes = column[:filled], coeffs[:filled], mixes[:filled]
    if 2 * filled < size:
        column, coeffs = column.copy(), coeffs.copy()
    if _may_repeat(mixes):
        return _checked_columns(zip(coeffs.tolist(), _decoded(column)))
    return _Columns(n_qubits, column, coeffs)


def _parse_lines(text: str) -> _Columns:
    """Columns of ``text`` parsed line by line; raises the error of its first bad line."""
    entries, word_len = [], None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        coeff_text, word = fields[0], fields[-1]
        try:
            coeff = float(coeff_text)
        except ValueError:
            coeff = None
        word_len = word_len or len(word)
        if len(fields) != 2:
            error = f"expected '<coefficient> <pauli-word>', got {raw.strip()!r}"
        elif coeff is None:
            error = f"malformed coefficient {coeff_text!r}"
        elif not math.isfinite(coeff):
            error = f"non-finite coefficient {coeff_text!r}"
        elif word.strip(PAULI_AXES):
            error = f"characters outside {{I,X,Y,Z}} in {word!r}"
        elif len(word) != word_len:
            error = f"word {word!r} has length {len(word)}, expected {word_len}"
        elif not word.strip("I"):
            error = "all-identity term is not allowed (it only shifts energy)"
        else:
            entries.append((coeff, word))
            continue
        raise HamiltonianParseError(error, line_no)
    if not entries:
        raise HamiltonianParseError("no Hamiltonian terms found")
    return _checked_columns(entries)

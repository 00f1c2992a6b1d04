"""The columnar Hamiltonian, its parser and the alias builder against their oracles.

The oracles in ``oracles.py`` are the object-based Hamiltonian (a tuple of
validated ``Term`` objects, rebuilt by ``canonical`` and ``truncate``), its
per-character parser, and the alias table built on numpy scalars.  Every
weight is > 0, so a term's (weight, sign) pair and its signed coefficient
determine each other: the columns ``words`` and ``coefficients`` equal the
oracle's terms exactly when they hold its axes and signed coefficients.
"""

import gc
import math
import weakref
from decimal import Decimal
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceHamiltonian,
    reference_alias_tables,
    reference_canonical_order,
    reference_circuit_text,
    reference_letter_codes,
    reference_parse_hamiltonian,
    scrambled_hamiltonian,
    wide_hamtxt,
)
from qdriftlab.channels import _letter_codes
from qdriftlab.cli import EXIT_OK, main
from qdriftlab.compiler import AliasSampler, compile_circuit
from qdriftlab import cli, hamiltonian
from qdriftlab.hamiltonian import _BLOCK_LINES, Hamiltonian, HamiltonianError, parse_hamiltonian

# Two-qubit words, so duplicates are frequent.  Dyadic coefficients
# cancel and tie exactly; 0.1 and 0.3 merge with rounding.
WORDS = ["ZZ", "XI", "IY", "YY", "XZ", "IZ", "ZI"]
COEFFS = [0.5, -0.5, 0.25, -0.25, 0.125, -0.125, 1.0, -1.0, 0.1, -0.1, 0.3, -0.3, 1e-3, 3.0]

coefficients = st.one_of(
    st.sampled_from(COEFFS), st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
)
# Entries that must raise (identity, bad character, wrong length, empty
# word, non-finite coefficient), and an identity pair that cancels.
bad_entries = st.one_of(
    st.lists(
        st.tuples(
            st.one_of(coefficients, st.sampled_from([math.inf, -math.inf, math.nan])),
            st.sampled_from(WORDS + ["II", "ZA", "ZZZ", ""]),
        ),
        max_size=2,
    ),
    st.just([(0.5, "II"), (-0.5, "II")]),
)


def _insert(good, bad, position):
    return good[:position] + bad + good[position:]


entry_lists = st.builds(
    _insert,
    st.lists(st.tuples(coefficients, st.sampled_from(WORDS)), max_size=14),
    bad_entries,
    st.integers(min_value=0, max_value=14),
)


def outcome(fn, *args):
    """("ok", value) or ("error", (class, message, line number))."""
    try:
        return "ok", fn(*args)
    except HamiltonianError as exc:
        return "error", (type(exc), str(exc), getattr(exc, "line_no", None))


def assert_same_terms(new, old):
    assert new.words == tuple(t.op.axes for t in old.terms)
    assert new.coefficients.tolist() == [t.signed_coefficient for t in old.terms]


def assert_same_truncation(new, old, eps):
    kind, new_value = outcome(new.truncate, eps)
    old_kind, old_value = outcome(old.truncate, eps)
    assert kind == old_kind
    if kind == "error":
        assert new_value == old_value
    else:
        assert_same_terms(new_value, old_value)
        assert new_value.lam.hex() == old_value.lam.hex()
        assert new_value.serialize() == old_value.serialize()


def assert_same_hamiltonian(new, old):
    assert new.n_qubits == old.n_qubits
    assert new.L == old.L
    assert_same_terms(new, old)
    assert new.lam.hex() == float(old.lam).hex()
    assert float(new.lam_max).hex() == float(old.lam_max).hex()
    assert tuple(new.weights.tolist()) == old.weights
    assert_same_terms(new.canonical(), old.canonical())
    assert new.serialize() == old.serialize()
    for frac in (0.001, 0.1, 0.37, 0.9):
        assert_same_truncation(new, old, frac * old.lam)


def assert_same_outcome(new_fn, old_fn, arg):
    kind, new = outcome(new_fn, arg)
    old_kind, old = outcome(old_fn, arg)
    assert kind == old_kind, (new, old)
    if kind == "error":
        assert new == old
    else:
        assert_same_hamiltonian(new, old)


@settings(max_examples=300, deadline=None)
@given(entry_lists)
def test_entry_lists_match_object_oracle(entries):
    assert_same_outcome(Hamiltonian, ReferenceHamiltonian, entries)


@pytest.mark.parametrize(
    "entries, coefficient",
    [
        # Summed as ints, 2**53 + 1 + 1 is exact; as float64 each + 1 rounds away.
        ([(2**53, "XZ"), (1, "XZ"), (1, "XZ")], 2.0**53 + 2),
        ([(Decimal("0.1"), "Y")] * 3, 0.3),
        ([(np.float32(0.1), "Y"), (np.float32(0.2), "Y")], float(np.float32(0.1) + np.float32(0.2))),
    ],
)
def test_repeated_words_sum_in_their_own_type(entries, coefficient):
    assert Hamiltonian(entries).coefficients.tolist() == [coefficient]


term_lines = st.builds(
    lambda pad, coeff, word, note: f"{pad}{coeff} {word}{note}",
    st.sampled_from(["", "  ", "\t"]),
    st.one_of(
        coefficients.map(repr), st.sampled_from(["+0.5", "-.25", "5e-1", "1_0", "0.0", "-0.0"])
    ),
    st.sampled_from(WORDS),
    st.sampled_from(["", "  # note", "#", " # 1.0 XX"]),
)
other_lines = st.sampled_from(["", "   ", "# hamtxt v1", "#", "0.5\tXI  "])
BAD_LINES = ["x.y ZZ", "nan ZZ", "inf XI", "-inf XI", "1.0 II", "1.0 ZA", "1.0 ZZZ", "1.0 zz",
             "0.5 ZZ XX", "ZZ"]
# Layouts whose token stream alone alternates coefficient and word.
SPLIT_TERMS = ["1.0 ZZ 0.5\nXX", "0.5\nZZ", "1.0 ZZ 0.5 XX"]
bad_lines = st.sampled_from(BAD_LINES + SPLIT_TERMS)
# Characters that str.split and str.splitlines treat differently (\r, \v,
# \f, \x1c-\x1f, \x85, U+2028) or that only str.split takes as a space
# (U+00A0): between fields, and at a line end after an optional comment
# and before an optional term, which str.splitlines puts on a line of its
# own.  Coefficients may be written in non-ASCII digits.
ODD_SPACES = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028"]
odd_lines = st.builds(
    lambda coeff, space, word, note, end, rest: f"{coeff}{space}{word}{note}{end}{rest}",
    st.one_of(*[coefficients.map(repr)] * 3, st.sampled_from(["\u0661.\u0665", "-\uff13", "\u0662"])),
    st.sampled_from([" ", "\t"] + ODD_SPACES),
    st.sampled_from(WORDS),
    st.sampled_from(["", " #", " # 1.0 XX", "\t# caf\xe9"]),
    st.sampled_from(ODD_SPACES),
    st.one_of(st.just(""), term_lines),
)
documents = st.builds(
    lambda good, bad, position, odd: "\n".join(_insert(_insert(good, bad, position), odd, position // 2)),
    st.lists(st.one_of(term_lines, term_lines, term_lines, other_lines), max_size=14),
    st.lists(bad_lines, max_size=2),
    st.integers(min_value=0, max_value=14),
    # Most documents hold no odd line, so most valid ones take the block path.
    st.one_of(st.just([]), st.just([]), st.lists(odd_lines, min_size=1, max_size=2)),
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_hamtxt_documents_match_reference_parser(text):
    assert_same_outcome(parse_hamiltonian, reference_parse_hamiltonian, text)


@settings(max_examples=300, deadline=None)
@given(documents, st.integers(min_value=1, max_value=4))
def test_documents_split_in_small_blocks_match_reference_parser(text, block_lines):
    # With blocks of a few lines, these short documents cross many block
    # boundaries: blank and comment runs, whole blocks without a term, and
    # bad lines at either edge of a block.
    with mock.patch.object(hamiltonian, "_BLOCK_LINES", block_lines):
        assert_same_outcome(parse_hamiltonian, reference_parse_hamiltonian, text)


def _long_document(quiet: str, key: int) -> list[str]:
    """Lines of a four-block document of two-qubit terms.

    Blank and comment lines run across the first block boundary
    (``quiet="run"``) or fill the whole second block (``quiet="block"``).
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    coeffs = (0.5 - rng.random(4 * _BLOCK_LINES)).tolist()
    picks = rng.integers(0, len(WORDS), size=4 * _BLOCK_LINES).tolist()
    lines = [f"{c!r} {WORDS[k]}" for c, k in zip(coeffs, picks)]
    if quiet == "run":
        span = range(_BLOCK_LINES - 3, _BLOCK_LINES + 3)
    else:
        span = range(_BLOCK_LINES, 2 * _BLOCK_LINES)
    for i in span:
        lines[i] = ["", "# comment", "   ", "#  1.0 ZZ"][i % 4]
    return lines


@pytest.mark.parametrize("position", ["first", "last"])
@pytest.mark.parametrize("quiet", ["run", "block"])
@pytest.mark.parametrize("bad", BAD_LINES)
def test_bad_line_at_a_block_edge_raises_as_the_reference(bad, quiet, position):
    lines = _long_document(quiet, key=len(bad))
    index = 2 * _BLOCK_LINES if position == "first" else 3 * _BLOCK_LINES - 1
    lines[index] = bad
    lines[-1] = "ZZ"  # a later bad line must not be the one reported
    text = "\n".join(lines)
    kind, new = outcome(parse_hamiltonian, text)
    old_kind, old = outcome(reference_parse_hamiltonian, text)
    assert kind == old_kind == "error"
    assert new == old
    assert new[2] == index + 1


@pytest.mark.parametrize("quiet", ["run", "block"])
def test_long_documents_match_reference_parser(quiet):
    text = "\n".join(_long_document(quiet, key=11))
    assert_same_outcome(parse_hamiltonian, reference_parse_hamiltonian, text)
    # The first term, which sets the word length, sits in the second block.
    text = "\n".join(["# header"] * _BLOCK_LINES + _long_document(quiet, key=12) + ["1.0 ZZZ"])
    assert_same_outcome(parse_hamiltonian, reference_parse_hamiltonian, text)
    assert_same_outcome(parse_hamiltonian, reference_parse_hamiltonian, "#\n\n" * _BLOCK_LINES)


@pytest.mark.parametrize(
    "text", ["1.0 XX #\r0.5 ZZ", "1.0 XX # c\x0c0.5 ZZ\n", "1.0 XX\t#\x1e-2.0 ZI", "0.5 XX # \x0b1.0"]
)
def test_a_line_break_inside_a_comment_ends_it_as_in_the_reference(text):
    # str.splitlines ends the comment at the \r, \f, \x1e or \v and starts a line.
    assert_same_outcome(parse_hamiltonian, reference_parse_hamiltonian, text)


@pytest.mark.parametrize("make_text", [
    wide_hamtxt,
    lambda: scrambled_hamiltonian(3000, 12, key=5).serialize(),
    lambda: "\t0.5 ZZ  # note\n\n-1.0\tXI\n#\n  0.25 IY",
    lambda: wide_hamtxt().replace("\n", "\r\n"),
], ids=["wide", "serialized", "tabs-and-comments", "windows-line-ends"])
def test_valid_ascii_documents_take_the_block_path(make_text):
    text = make_text()
    with mock.patch.object(hamiltonian, "_parse_lines", side_effect=AssertionError("line path")):
        h = parse_hamiltonian(text)
    assert_same_hamiltonian(h, reference_parse_hamiltonian(text))


def test_parse_peak_memory_stays_within_a_few_text_sizes():
    # Only one block's tokens are alive at a time, the columns are filled in
    # place, and a str is encoded a block at a time.  On this document the
    # peak is about 2.3 times the text; with the text encoded whole and the
    # block columns concatenated it was 2.83, one block of every line reads
    # about 8.3 times, and the per-line loop the blocks replaced 5.4.
    text = scrambled_hamiltonian(30_000, 30, key=31).serialize()
    gc.collect()
    tracemalloc.start()
    try:
        h = parse_hamiltonian(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.L == 30_000 and h.n_qubits == 30
    assert peak <= 2.6 * len(text)


def test_compile_peak_memory_stays_within_a_few_file_sizes(tmp_path, capsys):
    # The whole CLI compile of a 1.52 MB file: the file's bytes, the
    # canonical copy only (the parsed order is freed at load), the alias
    # build and the line table, built a chunk of terms at a time.  It reads
    # 3.29 times the file; reading the file as text, keeping the parsed
    # order beside the canonical copy and building every line at once read
    # 4.60.
    path = tmp_path / "h.txt"
    path.write_text(scrambled_hamiltonian(30_000, 30, key=31).serialize())
    argv = ["compile", "--ham", str(path), "--t", "1", "--eps", "3e4", "--seed", "5", "--out", str(tmp_path / "c.circ")]
    assert main(argv) == EXIT_OK  # first-call set-up stays out of the trace
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert '"N": 40698' in capsys.readouterr().out
    assert peak <= 3.8 * path.stat().st_size


@pytest.mark.parametrize("scan_bytes", [1, 5, 64, 1 << 22])
@pytest.mark.parametrize("block_lines", [1, 3, 4096])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_newlines_found_a_window_at_a_time_cut_blocks_of_block_lines(scan_bytes, block_lines, as_bytes):
    text = "# c\n\n1.0 ZZ\r\n" + "\n".join(f"{k}.5 XY" for k in range(40)) + "\n\n-1 XX"
    document = text.encode("ascii") if as_bytes else text
    with mock.patch.object(hamiltonian, "_SCAN_BYTES", scan_bytes), \
            mock.patch.object(hamiltonian, "_BLOCK_LINES", block_lines):
        blocks = list(hamiltonian._blocks(document))
    assert b"".join(block for block, _ in blocks) == text.encode("ascii")
    for k, (block, breaks) in enumerate(blocks):
        assert breaks.tolist() == [i for i, byte in enumerate(block) if byte == 10]
        if k < len(blocks) - 1:
            assert len(breaks) == block_lines and block.endswith(b"\n")
    assert len(blocks) == -(-(text.count("\n") + 1) // block_lines)


@pytest.mark.parametrize(
    "text",
    [
        "1.0 ZZ\nx.y XI",
        "1.0 ZZ\n0.5 XIZ",
        "1.0 ZA",
        "1.0 zz",
        "1.0 ZZ\n1.0 II",
        "# only comments\n\n",
        "",
        "0.5 ZZ\n-0.5 ZZ",
        "0.5 ZZ 1.0",
        "nan ZZ",
        "1e308 ZZ\n1e308 ZZ",
        "1.0 ZZ\n\n  # c\n2.0 XX\n-inf XI",
    ],
)
def test_malformed_documents_raise_as_the_reference(text):
    kind, new = outcome(parse_hamiltonian, text)
    old_kind, old = outcome(reference_parse_hamiltonian, text)
    assert kind == old_kind == "error"
    assert new == old


def test_wide_document_matches_reference():
    text = wide_hamtxt()
    assert_same_hamiltonian(parse_hamiltonian(text), reference_parse_hamiltonian(text))


def test_canonical_keeps_columns_and_skips_construction(monkeypatch):
    h = parse_hamiltonian(wide_hamtxt())
    calls = []
    original = Hamiltonian.__init__
    monkeypatch.setattr(Hamiltonian, "__init__", lambda self, e: calls.append(1) or original(self, e))
    canon = h.canonical()
    assert calls == []
    assert canon.lam == h.lam and canon.lam_max == h.lam_max
    assert sorted(canon.words) == sorted(h.words)
    keys = list(zip((-canon.weights).tolist(), canon.words))
    assert keys == sorted(keys)
    assert canon.canonical() == canon


def test_canonical_of_a_canonical_instance_is_itself_without_a_second_sort():
    no_sort = mock.patch.object(Hamiltonian, "_canonical_order", side_effect=AssertionError("sorted again"))
    h = parse_hamiltonian(wide_hamtxt())
    canon = h.canonical()
    assert canon is not h
    with no_sort:
        assert canon.canonical() is canon
    # A document written in canonical order is its own canonical form.
    again = parse_hamiltonian(canon.serialize())
    assert again.canonical() is again and again == canon
    with no_sort:
        assert again.canonical() is again
    # truncate() keeps input order, so its result is sorted again.
    assert not canon.truncate(0.1 * canon.lam)._canonical


def test_compile_frees_the_parsed_order_before_the_alias_build(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text(wide_hamtxt())
    parsed, alive_at_alias, sorts = [], [], []
    load, build, order = cli._load_hamiltonian, AliasSampler.__init__, Hamiltonian._canonical_order

    def recording_load(name):
        h = load(name)
        parsed.append(weakref.ref(h.coefficients))  # a Hamiltonian takes no weak reference
        return h

    def recording_build(self, weights):
        gc.collect()
        alive_at_alias.append(parsed[0]() is not None)
        build(self, weights)

    with mock.patch.object(cli, "_load_hamiltonian", recording_load), \
            mock.patch.object(AliasSampler, "__init__", recording_build), \
            mock.patch.object(Hamiltonian, "_canonical_order", lambda self: sorts.append(1) or order(self)):
        argv = ["compile", "--ham", str(path), "--t", "1", "--eps", "1", "--seed", "3", "--out", str(tmp_path / "c")]
        assert main(argv) == EXIT_OK
    assert alive_at_alias == [False]
    assert sorts == [1]


@pytest.mark.parametrize("step", [1, 3, 1 << 16])
def test_exact_sum_is_fsum_of_the_whole_list(step):
    # A contiguous array (step 1) and strided views of one: exact_sum reads
    # each float in place, in order.
    rng = np.random.Generator(np.random.Philox(key=17))
    values = rng.random(9 << 16) * 10.0 ** rng.integers(-300, 300, 9 << 16)
    values[: 9 * step : step] = [0.1] * 7 + [-1e300, 1e300]
    view = values[::step]
    assert view.flags.c_contiguous == (step == 1)
    assert hamiltonian.exact_sum(view) == math.fsum(view.tolist())
    with pytest.raises(OverflowError):
        hamiltonian.exact_sum(np.full(5 * step, 1e308)[::step])


def test_columns_are_read_only():
    h = Hamiltonian([(0.5, "ZZ"), (-0.25, "XI")])
    for column in (h.coefficients, h.weights):
        with pytest.raises(ValueError):
            column[0] = 1.0
    assert h.words == ("ZZ", "XI")
    assert h.coefficients.tolist() == [0.5, -0.25]


def _assert_words_are_the_reference(h, ref):
    words = h.words
    assert type(words) is tuple and all(type(word) is str for word in words)
    assert words == tuple(t.op.axes for t in ref.terms)
    assert h.words is words  # decoded once
    assert h._column.dtype == np.dtype(f"S{h.n_qubits}") and not h._column.flags.writeable


# A 40-qubit document whose words share their first 32 letters and differ
# only in the last eight, the fifth and last 8-byte piece of each word;
# every fifth word is written twice.
LONG_WORD_LINES = [f"{0.5 + k / 64!r} {'XYZI' * 8}{format(k, '08b').replace('0', 'X').replace('1', 'Z')}"
                   for k in range(40)]
LONG_WORD_TEXT = "\n".join(LONG_WORD_LINES + LONG_WORD_LINES[::5]) + "\n"


@pytest.mark.parametrize(
    "make_text, path",
    [
        (lambda: scrambled_hamiltonian(3000, 12, key=5).serialize(), "blocks"),
        (lambda: "# caf\xe9\n" + scrambled_hamiltonian(300, 12, key=6).serialize(), "lines"),
        (wide_hamtxt, "merge"),
        (lambda: LONG_WORD_TEXT, "merge"),
    ],
    ids=["block-path", "line-path", "merge-path", "long-words"],
)
def test_words_decode_to_the_reference_tuple(make_text, path):
    text = make_text()
    ref = reference_parse_hamiltonian(text)
    with mock.patch.object(hamiltonian, "_checked_columns", wraps=hamiltonian._checked_columns) as merge, \
            mock.patch.object(hamiltonian, "_parse_lines", wraps=hamiltonian._parse_lines) as lines:
        h = parse_hamiltonian(text)
    assert (lines.called, merge.called) == {"blocks": (False, False), "lines": (True, True),
                                            "merge": (False, True)}[path]
    _assert_words_are_the_reference(h, ref)
    _assert_words_are_the_reference(h.canonical(), ref.canonical())
    for frac in (0.1, 0.5):
        _assert_words_are_the_reference(h.truncate(frac * h.lam), ref.truncate(frac * ref.lam))
    entries = list(zip(h.coefficients.tolist(), h.words))
    _assert_words_are_the_reference(Hamiltonian(entries + entries[:3]), ReferenceHamiltonian(entries + entries[:3]))


def test_a_repeat_guess_only_sends_the_document_through_the_merge():
    # Distinct words whose 64-bit mixes collided would take the exact merge,
    # which finds no repeat and keeps every term in place.
    text = scrambled_hamiltonian(3000, 40, key=8).serialize()
    with mock.patch.object(hamiltonian, "_may_repeat", return_value=True):
        merged = parse_hamiltonian(text)
    assert merged == parse_hamiltonian(text)
    assert_same_hamiltonian(merged, reference_parse_hamiltonian(text))


@pytest.mark.parametrize("n_qubits", [1, 7, 8, 9, 16, 17, 40])
def test_words_one_letter_apart_are_told_apart_in_every_piece(n_qubits):
    # Words are mixed from their 8-letter pieces; each step is a bijection,
    # so words that differ in one piece only never mix equal.
    base = "X" * n_qubits
    words = [base] + [base[:q] + c + base[q + 1 :] for q in range(n_qubits) for c in "YZ"]
    def may_repeat(words):
        return hamiltonian._may_repeat(hamiltonian._word_mixes(hamiltonian._word_column(words, n_qubits)))

    assert not may_repeat(words)
    assert may_repeat([*words, words[-1]])
    assert may_repeat([words[1], *words])


@pytest.mark.parametrize("controlled", [False, True])
@pytest.mark.parametrize("make_text", [
    wide_hamtxt,
    # Two-qubit words that tie in weight in runs and repeat up to three times.
    lambda: "\n".join(f"{(k % 3 + 1) / 8!r} {WORDS[k % len(WORDS)]}" for k in range(17)),
], ids=["wide", "two-qubit-ties"])
def test_tied_weights_and_repeated_words_compile_as_the_reference(make_text, controlled):
    text = make_text()
    h = parse_hamiltonian(text)
    circuit = compile_circuit(h, 1.0, 1e-2 * h.lam**2, seed=9, controlled=controlled)
    ref = reference_parse_hamiltonian(text).canonical()
    assert_same_terms(circuit.source, ref)
    assert circuit.to_text() == reference_circuit_text(circuit)
    assert "".join(circuit.iter_text()) == reference_circuit_text(circuit)


@pytest.mark.parametrize("make_h", [
    lambda: parse_hamiltonian(wide_hamtxt()),
    lambda: Hamiltonian([(0.5, "IXYZ"), (-0.25, "ZYXI"), (1.0, "XXXX")]),
    lambda: scrambled_hamiltonian(60, 3, key=2).canonical(),
    lambda: Hamiltonian([(1.0, "Y")]),
], ids=["wide", "entries", "canonical", "one-letter"])
def test_letter_codes_equal_the_per_letter_loop(make_h):
    h = make_h()
    codes = _letter_codes(h)
    np.testing.assert_array_equal(codes, reference_letter_codes(h))
    assert codes.shape == (h.L, h.n_qubits)


def test_compile_creates_one_hamiltonian_and_no_term(monkeypatch, tmp_path, capsys):
    text = wide_hamtxt()
    expected = reference_circuit_text(
        compile_circuit(parse_hamiltonian(text), 1e-3, 1e-3, seed=5, controlled=True)
    )
    constructions = []
    original = Hamiltonian.__init__
    monkeypatch.setattr(
        Hamiltonian, "__init__", lambda self, e: constructions.append(1) or original(self, e)
    )
    ham, out = tmp_path / "w.txt", tmp_path / "w.circ"
    ham.write_text(text)
    argv = ["compile", "--ham", str(ham), "--t", "0.001", "--eps", "0.001", "--seed", "5",
            "--controlled", "--out", str(out)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert constructions == [1]
    assert out.read_text() == expected


def test_compile_decodes_no_word(tmp_path, capsys):
    # Parse, canonical order, sampling and the gate lines all read the byte
    # column; only a document with a repeated word decodes it, to merge.
    h = scrambled_hamiltonian(3000, 30, key=9)
    ham, out = tmp_path / "s.txt", tmp_path / "s.circ"
    ham.write_text(h.serialize())
    argv = ["compile", "--ham", str(ham), "--t", "0.01", "--eps", "0.001", "--seed", "3",
            "--out", str(out)]
    with mock.patch.object(hamiltonian, "_decoded", side_effect=AssertionError("decoded")):
        assert main(argv) == EXIT_OK
    capsys.readouterr()
    expected = reference_circuit_text(compile_circuit(h, 0.01, 0.001, seed=3))
    assert out.read_text() == expected


# Magnitudes with no tie, with many exact ties (dyadic values), all equal,
# and with a few ties.
magnitude_lists = st.one_of(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=300, unique=True),
    st.lists(st.integers(1, 16).map(lambda k: k / 16), min_size=1, max_size=300),
    st.builds(lambda m, n: [m] * n, st.floats(min_value=1e-3, max_value=1e3), st.integers(1, 300)),
    # Distinct magnitudes with a few of them repeated: short tied runs
    # between untied terms.
    st.builds(
        lambda ms, picks: ms + [ms[i % len(ms)] for i in picks],
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=300, unique=True),
        st.lists(st.integers(0, 299), min_size=1, max_size=10),
    ),
)


def _distinct_word_hamiltonian(magnitudes, key: int) -> Hamiltonian:
    """Signed magnitudes on distinct 8-qubit words in scrambled order.

    Word k is the base-4 digits of (k + key + 1) * 2654435761 mod 4**8, a
    bijection, so for k + key + 1 < 4**8 no word repeats and none is the
    identity.
    """
    negative = np.random.Generator(np.random.Philox(key=key)).random(len(magnitudes)) < 0.5
    entries = []
    for k, (m, neg) in enumerate(zip(magnitudes, negative.tolist())):
        v = ((k + key + 1) * 2654435761) % 4**8
        word = "".join("IXYZ"[(v >> (2 * q)) & 3] for q in range(8))
        entries.append((-m if neg else m, word))
    return Hamiltonian(entries)


@settings(max_examples=300, deadline=None)
@given(magnitude_lists, st.integers(min_value=0, max_value=60_000))
def test_canonical_order_matches_lexsort_oracle(magnitudes, key):
    h = _distinct_word_hamiltonian(magnitudes, key)
    np.testing.assert_array_equal(h._canonical_order(), reference_canonical_order(h))


def test_canonical_order_without_ties_needs_no_word_sort():
    h = scrambled_hamiltonian(2000, 12, key=3)
    expected = reference_canonical_order(h)
    with mock.patch.object(hamiltonian.np, "lexsort", side_effect=AssertionError("lexsort")):
        np.testing.assert_array_equal(h._canonical_order(), expected)


@pytest.mark.parametrize("kind", ["uniform", "dyadic", "equal", "lognormal"])
def test_truncate_matches_the_loop_oracle(kind):
    # truncate cuts one cumsum of the weights in removal order; the oracle
    # adds them one at a time, and each prefix must agree bit for bit.
    rng = np.random.Generator(np.random.Philox(key=len(kind)))
    for n in (1, 2, 3, 10, 100, 600):
        for key in range(8):
            magnitudes = {
                "uniform": lambda: rng.random(n) + 1e-3,
                "dyadic": lambda: 2.0 ** -rng.integers(0, 20, n).astype(float),
                "equal": lambda: np.full(n, 0.1),
                "lognormal": lambda: rng.lognormal(0.0, 2.0, n),
            }[kind]()
            h = _distinct_word_hamiltonian(magnitudes.tolist(), key)
            old = ReferenceHamiltonian(zip(h.coefficients.tolist(), h.words))
            for frac in (0.001, 0.1, 0.37, 0.5, 0.9, 0.999):
                assert_same_truncation(h, old, frac * h.lam)


def _weights(kind: str, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=n))
    if kind == "uniform":
        return 0.1 + 0.9 * rng.random(n)
    if kind == "equal":
        return np.full(n, 0.37)
    if kind == "exponential":
        return rng.exponential(1.0, n) + 1e-9
    if kind == "lognormal":
        return rng.lognormal(0.0, 2.0, n)
    if kind == "two-valued":
        return np.where(rng.random(n) < 0.3, 5.0, 0.2)
    if kind == "rounded-ties":
        return np.round(rng.random(n), 1) + 0.1
    return rng.pareto(1.2, n) + 1e-3  # heavy-tailed


def _assert_same_alias_tables(weights):
    sampler = AliasSampler(weights)
    want = reference_alias_tables(weights)
    for got, ref in zip((sampler._prob, sampler._alias, sampler._outcomes), want):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize(
    "kind", ["uniform", "equal", "heavy", "exponential", "lognormal", "two-valued", "rounded-ties"]
)
@pytest.mark.parametrize("n", [1, 2, 7, 2000, 30000, 70000])
def test_alias_tables_equal_numpy_scalar_builder(kind, n):
    _assert_same_alias_tables(_weights(kind, n))


@pytest.mark.parametrize(
    "weights",
    [
        [2.5],
        [1.0, 1.0],
        [0.1, 0.1, 0.1],
        [1.0, 3.0],
        [3.0, 1.0, 1.0, 1.0],
        [1e-300, 1.0, 1e300],
        [1.0] * 7 + [1e-9],
        [1e-9] * 7 + [1.0],
        [0.3, 0.3, 0.3, 0.1, 0.1, 0.1, 0.9, 0.9, 0.9],
    ],
)
def test_tied_alias_weights_equal_numpy_scalar_builder(weights):
    _assert_same_alias_tables(weights)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=40))
def test_any_alias_weights_equal_numpy_scalar_builder(weights):
    _assert_same_alias_tables(weights)

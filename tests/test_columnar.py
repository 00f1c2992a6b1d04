"""The columnar Hamiltonian, its parser and the alias builder against their oracles.

The oracles in ``oracles.py`` are the object-based Hamiltonian (a tuple of
validated ``Term`` objects, rebuilt by ``canonical`` and ``truncate``), its
per-character parser, and the alias table built on numpy scalars.  Every
weight is > 0, so a term's (weight, sign) pair and its signed coefficient
determine each other: the columns ``words`` and ``coefficients`` equal the
oracle's terms exactly when they hold its axes and signed coefficients.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceHamiltonian,
    reference_alias_tables,
    reference_circuit_text,
    reference_parse_hamiltonian,
    wide_hamtxt,
)
from qdriftlab.cli import EXIT_OK, main
from qdriftlab.compiler import AliasSampler, compile_circuit
from qdriftlab.hamiltonian import Hamiltonian, HamiltonianError, parse_hamiltonian

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
bad_lines = st.sampled_from(
    ["x.y ZZ", "nan ZZ", "inf XI", "-inf XI", "1.0 II", "1.0 ZA", "1.0 ZZZ", "1.0 zz",
     "0.5 ZZ XX", "ZZ"]
)
documents = st.builds(
    lambda good, bad, position: "\n".join(_insert(good, bad, position)),
    st.lists(st.one_of(term_lines, term_lines, term_lines, other_lines), max_size=14),
    st.lists(bad_lines, max_size=2),
    st.integers(min_value=0, max_value=14),
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_hamtxt_documents_match_reference_parser(text):
    assert_same_outcome(parse_hamiltonian, reference_parse_hamiltonian, text)


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


def test_columns_are_read_only():
    h = Hamiltonian([(0.5, "ZZ"), (-0.25, "XI")])
    for column in (h.coefficients, h.weights):
        with pytest.raises(ValueError):
            column[0] = 1.0
    assert h.words == ("ZZ", "XI")
    assert h.coefficients.tolist() == [0.5, -0.25]


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


def _weights(kind: str, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=n))
    if kind == "uniform":
        return 0.1 + 0.9 * rng.random(n)
    if kind == "equal":
        return np.full(n, 0.37)
    return rng.pareto(1.2, n) + 1e-3  # heavy-tailed


@pytest.mark.parametrize("kind", ["uniform", "equal", "heavy"])
@pytest.mark.parametrize("n", [1, 2, 7, 2000, 30000, 70000])
def test_alias_tables_equal_numpy_scalar_builder(kind, n):
    weights = _weights(kind, n)
    sampler = AliasSampler(weights)
    prob, alias = reference_alias_tables(weights)
    assert sampler._prob.dtype == prob.dtype and sampler._alias.dtype == alias.dtype
    np.testing.assert_array_equal(sampler._prob, prob)
    np.testing.assert_array_equal(sampler._alias, alias)

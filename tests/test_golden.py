"""Golden sha256 hashes of compiled circuits.

Every hash below was produced by the one-f-string-per-gate serializer and
the unchunked sampler, before compile output was streamed in blocks of
2**16 gates.  The N values sit below one block, at exactly one block, one
past it, and beyond three blocks.  The wide-Hamiltonian hashes at the end
were produced by the object-based Hamiltonian.  Never regenerate these
hashes: a mismatch means the output bytes changed.
"""

import hashlib
import json

import numpy as np
import pytest

from oracles import (
    reference_parse_hamiltonian,
    scrambled_hamiltonian,
    sha256_indices,
    sha256_text,
    wide_hamtxt,
)
from qdriftlab.cli import EXIT_OK, main
from qdriftlab.compiler import AliasSampler, compile_circuit, rng_from_seed
from qdriftlab.hamiltonian import Hamiltonian, parse_hamiltonian

TOP_SEED = 2**64 - 1

# (L, seed, N, mode, controlled, t, eps, sha256 of the .circ text)
GOLDEN = [
    (1, 0, 1000, "exact", False, 1.0089338132748886, 0.001, "a5bbdc54144e2f7b65a2d9b26254202295346880ce4e75206f745c7f78580813"),
    (1, 42, 65536, "approx", True, 1.0, 1.4953613281249998e-05, "10b830972e79181060e34b8eb26f85553ae612768c96a7adb05db51cf858be46"),
    (1, TOP_SEED, 65537, "exact", True, 8.176905839855854, 0.001, "b35ebfe043f65e1301aa054b92e884f60d89bacc9fe75f5956075c82d6a174c8"),
    (1, 7, 200003, "approx", False, 1.0, 4.899926501102483e-06, "f762a0353d59b654e3c0c9640ecbe6a56417d8babf4519bd08840e93e968e675"),
    (3, 42, 1000, "approx", True, 1.0, 0.003125, "424ac2e7456fc9611028792263a63eee055c033769098c70503dc0f8af88bb13"),
    (3, TOP_SEED, 65536, "exact", False, 4.5790323316242505, 0.001, "92d72e296ce667991bea47e4f0fe0aac3f311734a87cfd988fdcf40b8550ed20"),
    (3, 7, 65537, "approx", False, 1.0, 4.768298823565314e-05, "3bd0f8a95ac9190c574962ede2d4ce9b6e5d293bc467ad7a1fd701d58d8d5f31"),
    (3, 0, 200003, "exact", True, 7.99964002989719, 0.001, "1e47c1c571f78edb56bbb3f939c3c1688c0606aa9626318a7b37478c8c0d52b6"),
    (3, 5, 1, "approx", False, 1.0, 3.125, "58a05a8bb33a92e4a575e09161e208b5ed89ac09a8a82a1b7983b9ec09b79a94"),
    (3, 9, 7, "exact", True, 0.04342319449252496, 0.001, "30d69f05001ee929094e0ad60fcb694ac9c717de17054f8b2fd0a870bd27f2a6"),
    (2000, TOP_SEED, 1000, "approx", False, 1.0, 2370.7188973327593, "7b77f764db69ca0d4c2a100343333fc4e721fd1d6491b665ecb023f7c593f9c3"),
    (2000, 7, 65536, "exact", True, 0.005257250731106306, 0.001, "35b1fff97ff7caeb994f4fcc100bb7777714d1da68e407d39979032071f44deb"),
    (2000, 0, 65537, "approx", True, 1.0, 36.17374761329874, "427da1839ab10d87ff8bdd2104d5f715b9779ff1d3ec34364ae17a5be0c862d3"),
    (2000, 42, 200003, "exact", False, 0.009184498022717905, 0.001, "508a861a7e021af21a255b2422dd237a7555772c4e70b6a592f78fcd57683ab3"),
]

# sha256 of int64 indices from 65537 Philox weights (key 65537), seed 11,
# 3 * 2**16 + 7 draws: the uint32 storage path.
SAMPLER_GOLDEN = "369ad5afbe199b78b393e1bfa7c7fe0f81045df821d52e39d54aa48c87503cf1"

_HAMILTONIANS = {
    1: lambda: Hamiltonian([(0.7, "Z")]),
    3: lambda: Hamiltonian([(0.6, "ZZ"), (0.4, "XI"), (0.25, "IY")]),
    2000: lambda: scrambled_hamiltonian(2000, 12, 2000),
}


@pytest.fixture(scope="module")
def hamiltonians():
    return {L: make() for L, make in _HAMILTONIANS.items()}


def _case_id(case):
    L, seed, n, mode, controlled = case[:5]
    return f"L{L}-seed{seed}-N{n}-{mode}{'-ctrl' if controlled else ''}"


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_circuit_text_matches_golden_hash(case, hamiltonians):
    L, seed, n, mode, controlled, t, eps, digest = case
    circuit = compile_circuit(hamiltonians[L], t, eps, seed, mode=mode, controlled=controlled)
    assert len(circuit) == n
    assert sha256_text(circuit.to_text()) == digest


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_cli_file_matches_golden_hash(case, hamiltonians, tmp_path, capsys):
    L, seed, n, mode, controlled, t, eps, digest = case
    ham = tmp_path / "h.txt"
    ham.write_text(hamiltonians[L].serialize())
    out = tmp_path / "c.circ"
    argv = ["compile", "--ham", str(ham), "--t", repr(t), "--eps", repr(eps),
            "--seed", str(seed), "--mode", mode, "--out", str(out)]
    if controlled:
        argv.append("--controlled")
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sampler_uint32_path_matches_golden_hash():
    rng = np.random.Generator(np.random.Philox(key=65537))
    weights = 0.1 + 0.9 * rng.random(65537)
    draws = AliasSampler(weights).sample_many(rng_from_seed(11), 3 * 2**16 + 7)
    assert draws.max() == 65536
    assert sha256_indices(draws) == SAMPLER_GOLDEN


# The shuffled 30-qubit document from ``wide_hamtxt`` (4950 terms after
# merging, with duplicates, exact cancellations, sign flips and weight ties
# across different words).  These hashes come from the object-based
# Hamiltonian, before it became columnar; never regenerate them.
WIDE_DOC = "21156c0948b64d952ed2d45ba16e6586ba03d7bcbd5f749aa581aca8b2845a56"
WIDE_SERIALIZED = "64ba4f5bae0ac5a8044368ee635d57b8d2206004d037de8f5f961380fb3a43f0"
# `truncate --eps 0.75` removes all 39 terms of weight 1/64 and 4 of the 34
# of weight 2/64, so the tie-break on input order decides which.
WIDE_TRUNCATED = "1bf0935f8e880e9a64c22a83cba6fa7cf2f0695cd2a1cc9dd4151b325321c7bf"
# (mode, controlled, N, sha256 of the .circ file) at t = eps = 1e-3, seed 2024.
WIDE_CIRCUITS = [
    ("exact", False, 13925, "58f208d26507dc676b94f049a5b645a74163adc7986d9b0264c9a87c984c1e91"),
    ("exact", True, 13925, "8de8538c19df6dc0ee7e0b7ce5c4e3c838267bdb8534131a0a5fbf45706c14a8"),
    ("approx", False, 13920, "d82a9eb9452a0e98e32c0862e695a1341f57308c3f4ce2d674cf9caa80ecf3dd"),
]


@pytest.fixture(scope="module")
def wide_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("wide") / "wide.txt"
    path.write_text(wide_hamtxt())
    return path


def test_wide_document_matches_golden_hash():
    assert sha256_text(wide_hamtxt()) == WIDE_DOC


@pytest.mark.parametrize("parse", [parse_hamiltonian, reference_parse_hamiltonian])
def test_wide_serialize_matches_golden_hash(parse):
    h = parse(wide_hamtxt())
    assert h.L == 4950
    assert sha256_text(h.serialize()) == WIDE_SERIALIZED
    assert sha256_text(h.truncate(0.75).serialize()) == WIDE_TRUNCATED


def test_wide_cli_truncate_matches_golden_hash(wide_file, tmp_path, capsys):
    out = tmp_path / "t.txt"
    assert main(["truncate", "--ham", str(wide_file), "--eps", "0.75", "--out", str(out)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert (summary["L_before"], summary["L_after"]) == (4950, 4907)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WIDE_TRUNCATED


@pytest.mark.parametrize("case", WIDE_CIRCUITS, ids=lambda c: f"{c[0]}{'-ctrl' if c[1] else ''}")
def test_wide_cli_compile_matches_golden_hash(case, wide_file, tmp_path, capsys):
    mode, controlled, n, digest = case
    out = tmp_path / "w.circ"
    argv = ["compile", "--ham", str(wide_file), "--t", "0.001", "--eps", "0.001",
            "--seed", "2024", "--mode", mode, "--out", str(out)]
    if controlled:
        argv.append("--controlled")
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["N"] == n
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

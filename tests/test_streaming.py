"""The streamed compile path against its one-line-per-gate and clamp-and-select oracles."""

import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_hamiltonian
from oracles import reference_circuit_text, reference_sample_many, scrambled_hamiltonian
import qdriftlab
from qdriftlab.cli import EXIT_OK, main
from qdriftlab.compiler import _CHUNK as CHUNK
from qdriftlab.compiler import AliasSampler, Circuit, CircuitMeta, compile_circuit, rng_from_seed
from qdriftlab.hamiltonian import Hamiltonian

# The block size before 2**12, whose edges the sampler tests keep covering.
OLD_CHUNK = 1 << 16

seeds = st.integers(min_value=0, max_value=2**64 - 1)
# Counts and gate totals within a few of 0..3 whole blocks.
near_block = st.builds(
    lambda blocks, offset: max(1, blocks * CHUNK + offset),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-2, max_value=2),
)


def _compile_near(h, n_target, seed, controlled):
    # Approx mode gives N = ceil(2 lam^2 t^2 / eps); with t = 1 this eps lands
    # on n_target up to rounding.
    eps = 2.0 * h.lam**2 / n_target
    return compile_circuit(h, 1.0, eps, seed, mode="approx", controlled=controlled)


@settings(max_examples=15, deadline=None)
@given(
    ham_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_target=near_block,
    seed=seeds,
    controlled=st.booleans(),
    wide=st.none(),
)
# wide = (L, qubits) of a scrambled Hamiltonian.  3e4 gates leave 62% of
# 6e4 terms undrawn; past 2**16 terms the indices are uint32.
@example(ham_seed=5, n_target=30_000, seed=11, controlled=False, wide=(60_000, 16))
@example(ham_seed=6, n_target=40, seed=12, controlled=True, wide=(70_000, 10))
def test_to_text_equals_per_gate_serializer(ham_seed, n_target, seed, controlled, wide):
    if wide is None:
        rng = np.random.Generator(np.random.Philox(key=ham_seed))
        h = random_hamiltonian(rng, int(rng.integers(1, 4)))
    else:
        h = scrambled_hamiltonian(*wide, key=ham_seed)
    circuit = _compile_near(h, n_target, seed, controlled)
    assert abs(len(circuit) - n_target) <= 1
    assert circuit._indices.dtype == (np.uint16 if h.L <= 1 << 16 else np.uint32)
    assert circuit.to_text() == reference_circuit_text(circuit)


def test_to_text_peak_memory_follows_drawn_terms():
    # The line table holds 1e5 pointers (0.8 MB) and the lines of the ~100
    # drawn terms.  Formatting a line for every term peaked at about 15 MB.
    h = scrambled_hamiltonian(100_000, 30, key=41)
    circuit = _compile_near(h, 100, seed=7, controlled=False)
    gc.collect()
    tracemalloc.start()
    try:
        text = circuit.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(len(circuit) - 100) <= 1 and text.count("\n") == 4 + len(circuit)
    assert peak < 2_000_000


def test_streamed_text_peak_memory_does_not_grow_with_gates():
    # 2e6 gates over 2,000 terms: the drawn terms are counted one 2^12-gate
    # block at a time, so the peak is one block of text (about 0.18 MB) plus
    # the line table, about 0.46 MB in all.  2^16-gate blocks peaked at
    # 3.7 MB, and counting the whole index array at once made an int64 copy
    # of it (16 MB).
    h = scrambled_hamiltonian(2000, 12, key=43)
    circuit = _compile_near(h, 2_000_000, seed=11, controlled=False)
    gc.collect()
    tracemalloc.start()
    try:
        size = sum(map(len, circuit.iter_text()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(len(circuit) - 2_000_000) <= 1 and size > 40 * len(circuit)
    assert peak < 1_000_000


def test_to_text_peak_memory_stays_near_its_text():
    # 4e5 gates over 2,000 terms: one gather of the line table over every
    # gate, with the header put at the front of that list, and one join.  The
    # peak is the text and one pointer per gate, about 1.2 times the text;
    # joining the pieces of iter_text peaked at 2.0 times.
    h = scrambled_hamiltonian(2000, 12, key=43)
    circuit = _compile_near(h, 400_000, seed=13, controlled=False)
    gc.collect()
    tracemalloc.start()
    try:
        text = circuit.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(len(circuit) - 400_000) <= 1 and text.count("\n") == 4 + len(circuit)
    assert peak <= 1.4 * len(text)


def test_line_table_peak_memory_stays_near_its_lines():
    # Every one of 20,000 terms drawn: the lines are built 2^12 terms at a
    # time, so beside the finished table only one chunk's buffer and text are
    # alive, about 1.18 times the table.  Building every line in one buffer
    # and one str before splitting them peaked at 1.67 times.
    h = scrambled_hamiltonian(20_000, 30, key=7)
    circuit = _compile_near(h, 1_000_000, seed=3, controlled=False)
    gc.collect()
    tracemalloc.start()
    try:
        _, table = circuit._line_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = table.tolist()
    assert None not in lines
    assert peak <= 1.3 * (table.nbytes + sum(sys.getsizeof(line) for line in lines))


def _circuit_of(h, indices, controlled):
    """A circuit of the given term indices on ``h``, with an arbitrary angle."""
    indices = np.asarray(indices, dtype=np.int64)
    meta = CircuitMeta(seed=3, N=indices.size, t=1.0, eps=0.1, lam=h.lam, mode="approx",
                       controlled=controlled)
    return Circuit(indices, 0.1 * h.lam / max(indices.size, 1), meta, h)


def _assert_text_equals_reference(circuit):
    expected = reference_circuit_text(circuit)
    assert "".join(circuit.iter_text()) == expected
    assert circuit.to_text() == expected


# Term counts on either side of each change in the number of digits of j,
# and past 2**16 terms, where the indices are uint32.
DIGIT_EDGES = [1, 9, 10, 11, 99, 100, 101, 1000, 10001, 65_537]


@pytest.mark.parametrize("controlled", [False, True])
@pytest.mark.parametrize("L", DIGIT_EDGES)
def test_line_table_equals_per_gate_serializer_at_digit_edges(L, controlled):
    # Every term drawn, in scrambled order and some twice, then a compiled
    # circuit of about 3,000 gates.  About half the coefficients are negative.
    h = scrambled_hamiltonian(L, 9, key=L)
    order = np.random.Generator(np.random.Philox(key=L)).permutation(L)
    circuit = _circuit_of(h, np.concatenate([order, order[: L // 3]]), controlled)
    assert circuit._indices.dtype == (np.uint16 if L <= 1 << 16 else np.uint32)
    _assert_text_equals_reference(circuit)
    _assert_text_equals_reference(_compile_near(h, 3000, seed=L, controlled=controlled))


@pytest.mark.parametrize("controlled", [False, True])
@pytest.mark.parametrize(
    "L, indices",
    [
        (10001, [10000]),  # only the five-digit group
        (10001, [0, 10000, 0]),  # one and five digits
        (10001, [3, 99, 10000, 3]),  # no three- or four-digit term
        (10001, [1000, 999, 9999, 10]),  # no one- or five-digit term
        (1000, [999, 5, 999]),  # no two-digit term
        (65_537, [65_536, 0, 65_535]),  # uint32 indices; no two- to four-digit term
        (10, []),  # no gate: the header alone
    ],
)
def test_line_table_skips_digit_groups_with_no_drawn_term(L, indices, controlled):
    _assert_text_equals_reference(_circuit_of(scrambled_hamiltonian(L, 9, key=7), indices, controlled))


@pytest.mark.parametrize("controlled", [False, True])
def test_line_table_of_one_negative_term(controlled):
    h = Hamiltonian([(-0.75, "XIZ")])
    _assert_text_equals_reference(_circuit_of(h, [0, 0, 0], controlled))
    _assert_text_equals_reference(compile_circuit(h, 1.0, 1e-2, seed=4, controlled=controlled))


@pytest.mark.skipif(sys.platform != "linux", reason="the fault count is pinned for glibc on Linux")
def test_compile_reuses_block_memory_across_blocks(tmp_path):
    # Three CLI compiles of 4e5 gates over 2,000 terms in one fresh
    # interpreter.  By the third, every block's buffers come from heap pages
    # the process already holds.  With 2^16-gate blocks each multi-MB buffer
    # went back to the kernel after its block, and the third compile took
    # about 10,300 minor faults (40 MB of pages faulted in again).
    pytest.importorskip("resource")
    script = textwrap.dedent(
        """
        import contextlib, io, os, resource, sys
        from oracles import scrambled_hamiltonian
        from qdriftlab.cli import main

        work = sys.argv[1]
        h = scrambled_hamiltonian(2000, 12, key=43)
        ham, out = os.path.join(work, "h.txt"), os.path.join(work, "c.circ")
        with open(ham, "w") as fh:
            fh.write(h.serialize())
        argv = ["compile", "--ham", ham, "--t", "1.0", "--eps", repr(2.0 * h.lam**2 / 400_000),
                "--seed", "7", "--mode", "approx", "--out", out]
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            assert os.path.getsize(out) > 40 * 400_000
            os.unlink(out)
        print(faults)
        """
    )
    src = str(Path(qdriftlab.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1_000


@settings(max_examples=6, deadline=None)
@given(
    ham_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_target=near_block,
    seed=seeds,
    controlled=st.booleans(),
)
def test_cli_file_bytes_equal_to_text(ham_seed, n_target, seed, controlled, tmp_path_factory):
    rng = np.random.Generator(np.random.Philox(key=ham_seed))
    h = random_hamiltonian(rng, int(rng.integers(1, 4)))
    circuit = _compile_near(h, n_target, seed, controlled)
    work = tmp_path_factory.mktemp("cli")
    ham, out = work / "h.txt", work / "c.circ"
    ham.write_text(h.serialize())
    argv = ["compile", "--ham", str(ham), "--t", "1.0", "--eps", repr(circuit.meta.eps),
            "--seed", str(seed), "--mode", "approx", "--out", str(out)]
    if controlled:
        argv.append("--controlled")
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == circuit.to_text().encode()


@settings(max_examples=25, deadline=None)
@given(
    n_weights=st.sampled_from([1, 2, 7, 1 << 16, (1 << 16) + 1]),
    weight_seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.one_of(near_block, st.integers(min_value=0, max_value=300)),
    seed=seeds,
)
def test_sample_many_equals_unchunked_formula(n_weights, weight_seed, count, seed):
    weights = 0.05 + np.random.Generator(np.random.Philox(key=weight_seed)).random(n_weights)
    sampler = AliasSampler(weights)
    draws = sampler.sample_many(rng_from_seed(seed), count)
    expected = reference_sample_many(sampler, rng_from_seed(seed), count, block=max(count, 1))
    assert draws.dtype == expected.dtype == (np.uint16 if n_weights <= 1 << 16 else np.uint32)
    np.testing.assert_array_equal(draws, expected)


class _LargestUniform:
    """A generator stand-in whose every uniform is the largest, 1 - 2^-53."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


SAMPLER_SIZES = [1, 2, 3, 8, 2000, 1 << 16, (1 << 16) + 1]


@pytest.mark.parametrize("size", SAMPLER_SIZES)
def test_sample_many_equals_the_clamp_and_select_loop(size):
    weights = 0.05 + np.random.Generator(np.random.Philox(key=size)).random(size)
    sampler = AliasSampler(weights)
    for count in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7,
                  OLD_CHUNK - 1, OLD_CHUNK, OLD_CHUNK + 1, 200_003):
        draws = sampler.sample_many(rng_from_seed(size + count), count)
        expected = reference_sample_many(sampler, rng_from_seed(size + count), count)
        assert draws.dtype == expected.dtype
        np.testing.assert_array_equal(draws, expected)


def test_largest_uniform_resolves_the_last_column_as_the_clamp_did():
    # The clamp min(floor(x), size - 1) never acts: for every size up to
    # 2^17 the largest uniform lands in the last column, with the same
    # fractional part, so the same coin.
    sizes = np.arange(1, (1 << 17) + 1)
    x = np.nextafter(1.0, 0.0) * sizes
    clamped = np.minimum(x.astype(np.int64), sizes - 1)
    assert np.array_equal(np.floor(x), sizes - 1)
    assert np.array_equal(x - np.floor(x), x - clamped)
    for size in SAMPLER_SIZES + [1 << 17]:
        sampler = AliasSampler(0.05 + np.random.Generator(np.random.Philox(key=size)).random(size))
        draws = sampler.sample_many(_LargestUniform(), 3)
        expected = reference_sample_many(sampler, _LargestUniform(), 3)
        assert draws.dtype == expected.dtype
        np.testing.assert_array_equal(draws, expected)
        assert draws[0] in (size - 1, sampler._alias[size - 1])


def test_sample_many_leaves_generator_where_one_call_would():
    sampler = AliasSampler([0.2, 0.3, 0.5])
    chunked, single = rng_from_seed(3), rng_from_seed(3)
    sampler.sample_many(chunked, 2 * CHUNK + 5)
    single.random(2 * CHUNK + 5)
    assert chunked.random() == single.random()


def test_term_indices_stay_int64(three_term_2q):
    circuit = compile_circuit(three_term_2q, 1.0, 1e-3, seed=1)
    indices = circuit.term_indices
    assert indices.dtype == np.int64
    assert circuit._indices.dtype == np.uint16
    indices[0] = -1
    assert circuit.term_indices[0] != -1  # a copy, not a view of the stored array

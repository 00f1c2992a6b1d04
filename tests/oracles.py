"""Reference implementations that the fast paths in ``qdriftlab`` must match.

These are the straightforward forms the library used before it streamed
compile output: one f-string per gate, and the alias draw applied to a
single ``rng.random(count)`` call.  They are kept for tests only.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from qdriftlab.hamiltonian import Hamiltonian


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
    terms = circuit.source.terms
    for j in circuit.term_indices:
        lines.append(f"{op} {j} {terms[j].op} {tau_text}")
    return "\n".join(lines) + "\n"


def reference_sample_many(sampler, rng: np.random.Generator, count: int) -> np.ndarray:
    """Alias draws from one unchunked ``rng.random(count)`` call, as int64."""
    x = rng.random(count) * sampler.size
    idx = np.minimum(x.astype(np.int64), sampler.size - 1)
    frac = x - idx
    return np.where(frac < sampler._prob[idx], idx, sampler._alias[idx])


def reference_segment_error_bound(lam: float, t: float, n: int) -> float:
    """(2 lam^2 t^2 / N^2) e^{2 lam t / N} with an unguarded ``math.exp``."""
    x = 2.0 * lam * t / n
    return 0.5 * x * x * math.exp(x)


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

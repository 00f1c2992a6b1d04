"""Seeded inputs for the benchmark workloads.

Every input comes from a Philox generator keyed with (workload seed,
workload id), so the same seed gives the same files and argument lists on
any commit.  The generator is the benchmark's own; it shares no code with
the package under test.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOAD_IDS = {"compile-long": 1, "compile-wide": 2, "certify": 3, "plan": 4}

PAULI_AXES = "IXYZ"


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    """Philox stream for one workload run, keyed by (seed, workload id)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(key=[seed, WORKLOAD_IDS[workload]]))


def random_words(rng: np.random.Generator, count: int, n_qubits: int) -> list[str]:
    """`count` distinct, non-identity Pauli words of length `n_qubits`."""
    if count > 4**n_qubits - 1:
        raise ValueError(f"only {4**n_qubits - 1} non-identity words on {n_qubits} qubits")
    chars = np.array(list(PAULI_AXES))
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        codes = rng.integers(0, 4, size=(count - len(words), n_qubits))
        for row in chars[codes]:
            word = "".join(row)
            if word in seen or not word.strip("I"):
                continue
            seen.add(word)
            words.append(word)
    return words


def hamtxt(coeffs: list[float], words: list[str]) -> str:
    """``hamtxt v1`` text with round-trip (repr) coefficients."""
    lines = ["# hamtxt v1"] + [f"{c!r} {w}" for c, w in zip(coeffs, words)]
    return "\n".join(lines) + "\n"


def random_hamiltonian(
    rng: np.random.Generator, n_terms: int, n_qubits: int, lam_target: float | None = None
) -> tuple[list[float], list[str]]:
    """Signed coefficients with |c| in [0.1, 1] (optionally rescaled to sum to
    about `lam_target`) on distinct random words."""
    words = random_words(rng, n_terms, n_qubits)
    mags = rng.uniform(0.1, 1.0, size=n_terms)
    if lam_target is not None:
        mags *= lam_target / math.fsum(mags.tolist())
    signs = np.where(rng.random(n_terms) < 0.5, -1.0, 1.0)
    return [float(c) for c in mags * signs], words


def time_for_gate_count(lam: float, eps: float, n_target: float) -> float:
    """Evolution time t with 2 lam^2 t^2 / eps = n_target, so N is about n_target."""
    return math.sqrt(n_target * eps / 2.0) / lam


def plan_profile(rng: np.random.Generator, stratum: int, strata: int) -> tuple[int, float, float]:
    """(L, lam_max, lam): L log-uniform in [10, 1e4], lam in [0.2, 1] * L * lam_max.

    log10 L is drawn from the `stratum`-th of `strata` equal slices of [1, 4],
    so that every block of `strata` ops covers the whole range once.
    """
    u = (stratum + rng.random()) / strata
    L = int(round(10.0 ** (1.0 + 3.0 * u)))
    lam_max = float(rng.uniform(0.1, 1.0))
    lam = float(rng.uniform(0.2, 1.0)) * L * lam_max
    return L, lam_max, lam

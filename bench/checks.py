"""Output checks for the benchmark workloads, independent of the package.

Each check returns a list of problems (empty when the output is correct).
They recompute what the CLI printed from the benchmark's own inputs with
the benchmark's own arithmetic.  The one exception is the product-formula
bound functions, whose public definitions are the reference the `plan`
check holds each solved segment count against.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

LOG_2 = math.log(2.0)


# ---------------------------------------------------------------------------
# qDRIFT gate count


def qdrift_gate_count(lam: float, t: float, eps: float) -> int:
    """Smallest N with (2 lam^2 t^2 / N) e^(2 lam t / N) <= eps, in log space."""
    log_eps = math.log(eps)
    log_lt = math.log(lam * t)

    def too_big(n: int) -> bool:
        return LOG_2 + 2.0 * log_lt - math.log(n) + 2.0 * lam * t / n > log_eps

    if not too_big(1):
        return 1
    hi = 2
    while too_big(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if too_big(mid):
            lo = mid
        else:
            hi = mid
    return hi


def qdrift_bound(lam: float, t: float, n: int) -> float:
    """(2 lam^2 t^2 / N) e^(2 lam t / N), through logs."""
    return math.exp(LOG_2 + 2.0 * math.log(lam * t) - math.log(n) + 2.0 * lam * t / n)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


# ---------------------------------------------------------------------------
# compile


def canonical_order(coeffs: list[float], words: list[str]) -> list[int]:
    """Term positions in canonical order: weight descending, then word."""
    return sorted(range(len(words)), key=lambda i: (-abs(coeffs[i]), words[i]))


class CompileOracle:
    """Expected N, tau and gate lines for one (Hamiltonian, t, eps)."""

    def __init__(self, coeffs: list[float], words: list[str], t: float, eps: float):
        order = canonical_order(coeffs, words)
        weights = np.array([abs(coeffs[i]) for i in order])
        self.lam = math.fsum(weights.tolist())
        self.p = weights / self.lam
        self.t, self.eps = t, eps
        self.N = qdrift_gate_count(self.lam, t, eps)
        self.tau = self.lam * t / self.N
        tau_text = format(self.tau, ".17g")
        self.header = f"# qdrift-circ v1\n# seed={{seed}}\n# N={self.N}\n# tau={tau_text}\n"
        self.line_index = {
            f"ROT {j} {'+' if coeffs[i] > 0 else '-'}{words[i]} {tau_text}".encode(): j
            for j, i in enumerate(order)
        }

    def check(self, stdout: str, data: bytes, seed: int, out_path: str) -> list[str]:
        problems = []
        try:
            summary = json.loads(stdout)
        except ValueError:
            return [f"summary is not JSON: {stdout[:200]!r}"]
        if summary.get("N") != self.N:
            problems.append(f"N={summary.get('N')} but the smallest N meeting eps is {self.N}")
        if summary.get("tau") != self.tau:
            problems.append(f"tau={summary.get('tau')!r} but lam*t/N={self.tau!r}")
        if summary.get("lambda") != self.lam or summary.get("seed") != seed:
            problems.append("lambda or seed in the summary does not match the input")
        if summary.get("file") != out_path:
            problems.append(f"summary names {summary.get('file')!r}, expected {out_path!r}")
        header = self.header.format(seed=seed).encode()
        if not data.startswith(header):
            return problems + ["circuit header does not match seed, N and tau"]
        lines = data[len(header):].split(b"\n")
        if lines[-1] != b"":
            problems.append("circuit does not end with a newline")
        lines = lines[:-1]
        if len(lines) != self.N:
            return problems + [f"{len(lines)} gate lines for N={self.N}"]
        lookup = self.line_index.get
        indices = np.fromiter((lookup(line, -1) for line in lines), dtype=np.int64, count=len(lines))
        bad = np.flatnonzero(indices < 0)
        if bad.size:
            return problems + [f"{bad.size} gate lines do not match their canonical term, first {lines[bad[0]][:80]!r}"]
        z = frequency_z(np.bincount(indices, minlength=self.p.size), self.p)
        if z > 6.0:
            problems.append(f"index frequencies do not fit h_j/lam (chi-square z={z:.1f})")
        return problems


def frequency_z(counts: np.ndarray, p: np.ndarray) -> float:
    """Standardized chi-square statistic of multinomial counts against p.

    Uses the exact multinomial variance of Pearson's statistic,
    2(k-1) + (sum 1/p - k^2 - 2k + 2) / n, so sparse cells are allowed.
    """
    n = int(counts.sum())
    k = p.size
    expected = n * p
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    var = 2.0 * (k - 1) + (float(np.sum(1.0 / p)) - k * k - 2.0 * k + 2.0) / n
    return (chi2 - (k - 1)) / math.sqrt(var)


# ---------------------------------------------------------------------------
# certify


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pauli(word: str) -> np.ndarray:
    return functools.reduce(np.kron, (_PAULI[c] for c in word))


def _expi(h: np.ndarray, theta: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * theta * w)) @ v.conj().T


def _choi(unitaries: list[np.ndarray], probs: list[float]) -> np.ndarray:
    """Choi state (1/d) sum_ij |i><j| (x) E(|i><j|) of rho -> sum_k p_k U_k rho U_k^dag.

    Built from the definition, entry by entry: the (i, a), (j, b) entry is
    (1/d) sum_k p_k U_k[a, i] conj(U_k[b, j]).
    """
    d = unitaries[0].shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for p, u in zip(probs, unitaries):
        w = u.T.reshape(-1)  # w[(i, a)] = U[a, i]
        out += p * np.outer(w, w.conj())
    return out / d


def dense_d_lower(coeffs: list[float], words: list[str], t: float, n: int) -> float:
    """Choi trace distance between one exact segment and one qDRIFT step."""
    mats = [_pauli(w) for w in words]
    lam = math.fsum(abs(c) for c in coeffs)
    h = sum(c * m for c, m in zip(coeffs, mats))
    target = _choi([_expi(h, t / n)], [1.0])
    tau = lam * t / n
    steps = [_expi(math.copysign(1.0, c) * m, tau) for c, m in zip(coeffs, mats)]
    mix = _choi(steps, [abs(c) / lam for c in coeffs])
    diff = target - mix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


VERIFY_N = (10, 100, 1000)


def check_verify(
    stdout: str, csv_text: str, coeffs: list[float], words: list[str], t: float, reference: bool
) -> list[str]:
    problems = []
    if stdout.rstrip("\n").split("\n")[-1] != "VERIFY: PASS":
        problems.append("verify did not end with 'VERIFY: PASS'")
    lines = csv_text.rstrip("\n").split("\n")
    if lines[0] != "N,d_lower,bound,ratio" or len(lines) != 1 + len(VERIFY_N):
        return problems + [f"unexpected CSV shape: {lines[:2]!r}, {len(lines)} lines"]
    lam = math.fsum(abs(c) for c in coeffs)
    rows = {}
    for line in lines[1:]:
        n_text, d_text, b_text, r_text = line.split(",")
        n, d_lower, bound, ratio = int(n_text), float(d_text), float(b_text), float(r_text)
        rows[n] = d_lower
        if not 0.0 <= d_lower <= bound:
            problems.append(f"N={n}: d_lower={d_lower!r} outside [0, bound={bound!r}]")
        if not close(bound, qdrift_bound(lam, t, n) / n):
            problems.append(f"N={n}: bound {bound!r} != recomputed {qdrift_bound(lam, t, n) / n!r}")
        if not close(ratio, d_lower / bound):
            problems.append(f"N={n}: ratio {ratio!r} != d_lower/bound")
    if sorted(rows) != list(VERIFY_N):
        problems.append(f"CSV rows cover N={sorted(rows)}, expected {list(VERIFY_N)}")
    elif reference:
        ref = dense_d_lower(coeffs, words, t, VERIFY_N[0])
        if abs(ref - rows[VERIFY_N[0]]) > 1e-9:
            problems.append(f"d_lower at N=10 is {rows[VERIFY_N[0]]!r}, dense reference {ref!r}")
    return problems


# ---------------------------------------------------------------------------
# plan


COST_HEADER = "method,order,variant,r,gates,bound,t,eps,L,Lambda,lambda"
PE_HEADER = "method,P_f,p_f_opt,eps_tot,m,total_gates,closed_form_gates,ratio"
INT64_MAX = 2**63 - 1
R_MAX = 2**63

# (family, order, variant) in the order the sweep writes them.
SWEEP_METHODS = (("qdrift", "", ""),) + tuple(
    (family, str(order), variant)
    for family, order in (("trotter", 1), ("suzuki", 2), ("suzuki", 4), ("suzuki", 6))
    for variant in ("det", "random")
)


def _gates_cell_ok(cell: str, gates: int) -> bool:
    if gates <= INT64_MAX:
        return cell == str(gates)
    return cell.startswith("log10_gates=") and close(float(cell.split("=", 1)[1]), math.log10(gates), 1e-9)


def check_sweep(
    csv_text: str, trotter, L: int, lam_max: float, lam: float, eps: float,
    grid: np.ndarray, t_range: tuple[float, float],
) -> list[str]:
    """Recompute every qdrift count and check every solved r is minimal."""
    lines = csv_text.rstrip("\n").split("\n")
    if lines[0] != COST_HEADER:
        return [f"unexpected sweep header {lines[0]!r}"]
    body = [line.split(",") for line in lines[1:]]
    expected_rows = len(grid) * len(SWEEP_METHODS)
    if len(body) not in (expected_rows, expected_rows + 1):
        return [f"{len(body)} sweep rows, expected {expected_rows} (+1 crossover)"]
    problems = []
    for i, cells in enumerate(body[:expected_rows]):
        family, order, variant, r_cell, gates_cell, bound_cell, t_cell = cells[:7]
        t = float(t_cell)
        tag = f"row {i + 1} ({family}{order}-{variant}, t={t_cell})"
        if (family, order, variant) != SWEEP_METHODS[i % len(SWEEP_METHODS)]:
            problems.append(f"{tag}: unexpected method")
            continue
        if not close(t, float(grid[i // len(SWEEP_METHODS)])):
            problems.append(f"{tag}: t off the log grid")
        if [float(c) for c in cells[7:]] != [eps, float(L), lam_max, lam]:
            problems.append(f"{tag}: eps/L/Lambda/lambda cells do not echo the query")
        if family == "qdrift":
            n = qdrift_gate_count(lam, t, eps)
            if r_cell or not _gates_cell_ok(gates_cell, n):
                problems.append(f"{tag}: gates {gates_cell} != recomputed {n}")
            elif not close(float(bound_cell), qdrift_bound(lam, t, n), 1e-9):
                problems.append(f"{tag}: bound {bound_cell} != recomputed")
            continue
        if family == "trotter":
            err = (trotter.trotter_error_det if variant == "det" else trotter.trotter_error_random)
            err = functools.partial(err, L, lam_max, t)
            per_segment = L
        else:
            k = int(order) // 2
            err = functools.partial(trotter.suzuki_error, k, L, lam_max, t, variant=variant)
            per_segment = 2 * 5 ** (k - 1) * L
        if gates_cell == "overflow":
            if r_cell or not err(R_MAX) > eps:
                problems.append(f"{tag}: reported overflow but r=2**63 meets eps")
            continue
        r = int(r_cell)
        if not err(r) <= eps or (r > 1 and not err(r - 1) > eps):
            problems.append(f"{tag}: r={r} is not the smallest r with bound <= eps")
        if not _gates_cell_ok(gates_cell, per_segment * r):
            problems.append(f"{tag}: gates {gates_cell} != {per_segment} * r")
        if float(bound_cell) != err(r):
            problems.append(f"{tag}: bound {bound_cell} != bound at r")
    if len(body) > expected_rows:
        cells = body[-1]
        t_star = float(cells[6])
        if cells[0] != "crossover" or not t_range[0] <= t_star <= t_range[1]:
            problems.append(f"bad crossover row {','.join(cells)}")
    return problems


def check_phase_est(csv_text: str, pf_grid: np.ndarray) -> list[str]:
    lines = csv_text.rstrip("\n").split("\n")
    if lines[0] != PE_HEADER or len(lines) != 1 + 2 * len(pf_grid):
        return [f"unexpected phase-est table: {lines[0]!r}, {len(lines)} lines"]
    problems = []
    for i, P_f in enumerate(pf_grid):
        q = lines[1 + 2 * i].split(",")
        tr = lines[2 + 2 * i].split(",")
        if q[0] != "qdrift" or tr[0] != "trotter":
            problems.append(f"P_f #{i}: rows out of order")
            continue
        for cells in (q, tr):
            if not close(float(cells[1]), float(P_f)):
                problems.append(f"{cells[0]} P_f #{i}: {cells[1]} off the log grid")
            p_f, eps_tot = float(cells[2]), float(cells[3])
            if not close(float(cells[1]), p_f + 2.0 * eps_tot):
                problems.append(f"{cells[0]} P_f #{i}: P_f != p_f + 2 eps_tot")
            if float(cells[7]) != float(tr[5]) / float(q[5]):
                problems.append(f"{cells[0]} P_f #{i}: ratio != trotter/qdrift total")
    return problems

"""Acceptance suite: every release criterion as one test, each printing a
PASS/FAIL line (visible with ``pytest -s`` or ``-rA``).  Tolerances are
pinned here, not configurable."""

import math
import time

import numpy as np
import pytest

from conftest import random_hamiltonian
from oracles import closed_form_suzuki_count, suzuki_prefactor
from qdriftlab import channels as ch
from qdriftlab import cli
from qdriftlab import phase_estimation as pe
from qdriftlab import trotter
from qdriftlab.compiler import AliasSampler, rng_from_seed
from qdriftlab.hamiltonian import Hamiltonian, WeightProfile
from qdriftlab.trotter import gate_count_approx, gate_count_exact

SUITE_SEED = 20190705
VERIFY_N = (10, 100, 1000)
SLOPE_BAND = (-2.3, -1.7)


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {tag}{suffix}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def random_suite():
    """20 random Hamiltonians, n in {1,2,3}, L in {2..8}, fixed seed."""
    rng = np.random.Generator(np.random.Philox(key=SUITE_SEED))
    suite = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        suite.append(random_hamiltonian(rng, n))
    return suite


@pytest.fixture(scope="module")
def bound_tables(random_suite):
    start = time.time()
    tables = [ch.verify_bound(h, 1.0, VERIFY_N) for h in random_suite]
    return tables, time.time() - start


def test_bound_certification(random_suite, bound_tables):
    tables, elapsed = bound_tables
    violations = [(i, row) for i, rows in enumerate(tables) for row in rows if not row.ok]
    _report(
        "bound certification",
        not violations and elapsed < 120,
        f"{len(random_suite)} Hamiltonians x {len(VERIFY_N)} N values, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )


def test_second_order_drift(random_suite, bound_tables):
    tables, _ = bound_tables
    slopes = [ch.decay_slope(rows) for rows in tables]
    in_band = all(SLOPE_BAND[0] <= s <= SLOPE_BAND[1] for s in slopes)
    controls = [
        ch.decay_slope(ch.verify_bound(h, 1.0, VERIFY_N, tau_scale=2.0)) for h in random_suite
    ]
    degraded = all(c > -1.5 for c in controls)
    _report(
        "second-order drift",
        in_band and degraded,
        f"slopes [{min(slopes):.3f}, {max(slopes):.3f}], "
        f"negative-control max {max(controls):.3f}",
    )


def test_sampling_correctness():
    draws = 100_000
    rng_weights = np.random.Generator(np.random.Philox(key=SUITE_SEED + 1))
    worst = 0.0
    for i in range(10):
        weights = rng_weights.uniform(0.05, 1.0, size=int(rng_weights.integers(2, 9)))
        sampler = AliasSampler(weights)
        counts = np.bincount(sampler.sample_many(rng_from_seed(1000 + i), draws),
                             minlength=weights.size)
        for j, p in enumerate(sampler.probabilities):
            sigma = math.sqrt(p * (1 - p) / draws)
            worst = max(worst, abs(counts[j] / draws - p) / sigma)
    _report("sampling correctness", worst <= 5.0, f"worst pull {worst:.2f} sigma over 10 vectors")


def test_gate_count_formulas():
    approx_ok = gate_count_approx(1.0, 1.0, 1e-3) == 2000

    n = 1
    while (2.0 / n) * math.exp(2.0 / n) > 1e-3:  # independent integer scan
        n += 1
    exact_ok = gate_count_exact(1.0, 1.0, 1e-3) == n == 2002

    rng = np.random.default_rng(404)
    grid_ok = all(
        gate_count_exact(lam, t, eps) >= gate_count_approx(lam, t, eps)
        for lam, t, eps in zip(
            rng.uniform(0.1, 5.0, 100), rng.uniform(0.1, 20.0, 100), 10.0 ** rng.uniform(-6, -1, 100)
        )
    )
    _report(
        "gate-count formulas",
        approx_ok and exact_ok and grid_ok,
        "approx=2000, exact=2002 (scan oracle), exact >= approx on 100-point grid",
    )


def test_suzuki_constant_and_closed_form():
    c1_ok = abs(suzuki_prefactor(1) - 4 * math.sqrt(2)) <= 1e-12
    worst = 0.0
    for L in (2, 5, 10, 20):
        for t in (1.0, 3.0, 10.0):
            for eps in (1e-3, 1e-4):
                query = trotter.CostQuery(WeightProfile(L, float(L), 1.0), t, eps)
                solved = trotter.gate_count(trotter.SUZUKI_RANDOM[1], query)
                assert t / solved.r < 0.1  # stated dominance regime
                approx = closed_form_suzuki_count(1, L, 1.0, t, eps)
                worst = max(worst, abs(approx - solved.gates) / solved.gates)
    _report(
        "order-2 closed form",
        c1_ok and worst < 0.20,
        f"C1 = 4*sqrt(2) to 1e-12, worst closed-vs-solved deviation {worst:.1%}",
    )


def test_crossover_existence():
    profile = WeightProfile(100, 10.0, 1.0)  # lam = lam_max * sqrt(L)
    t_star = trotter.crossover_time(profile, 1e-3, (1.0, 1e12))
    ok = t_star is not None
    detail = "no crossover found"
    if ok:
        below = trotter.CostQuery(profile, t_star / 10, 1e-3)
        above = trotter.CostQuery(profile, 10 * t_star, 1e-3)
        qd_below = trotter.gate_count(trotter.QDRIFT, below).gates
        qd_above = trotter.gate_count(trotter.QDRIFT, above).gates
        ok = qd_below < trotter.best_method(below).gates and qd_above > trotter.best_method(
            above
        ).gates
        detail = f"t* = {t_star:.4g}, cheaper at t*/10 and dearer at 10 t*"
    _report("crossover existence", ok, detail)


def test_composition_subadditivity():
    h = Hamiltonian([(0.5, "Z"), (0.5, "X")])
    trials = ch.composition_check(h, 1.0, 100, trials=20, seed=SUITE_SEED)
    states_ok = all(tr.state_ok for tr in trials)
    expvals_ok = all(tr.expval_ok for tr in trials)
    _report(
        "composition subadditivity",
        states_ok and expvals_ok,
        f"20 states and 20 projectors at N=100, max d_tr {max(t.d_tr for t in trials):.3e} "
        f"vs budget {trials[0].budget:.3e}",
    )


def test_phase_estimation_pipeline():
    # per-bit sums vs the exact geometric closed forms
    q_qd = pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=0.05)
    plan_qd = pe.build_plan("qdrift", q_qd)
    qd_delta = abs(plan_qd.total / pe.geometric_total("qdrift", plan_qd.m, plan_qd.eps_tot) - 1)

    q_tr = pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=0.05, L=100, lam_max=1.0)
    plan_tr = pe.build_plan("trotter", q_tr)
    tr_geometric = pe.geometric_total("trotter", plan_tr.m, plan_tr.eps_tot, q_tr.L, q_tr.lam_max_rescaled)
    tr_delta = abs(plan_tr.total / tr_geometric - 1)
    sums_ok = qd_delta <= 1e-12 and tr_delta <= 1e-12

    # optimizer vs the small-P_f fractions at P_f = 1e-3 (delta = 5e-5)
    opt_qd = pe.optimize_pf("qdrift", pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=1e-3))
    opt_tr = pe.optimize_pf("trotter", pe.PEQuery(lam=1.0, delta_E=1e-4, P_f=1e-3, L=100, lam_max=1.0))
    pf_ok = (
        abs(opt_qd.p_f / ((2 / 3) * 1e-3) - 1) <= 0.05
        and abs(opt_tr.p_f / ((3 / 4) * 1e-3) - 1) <= 0.05
    )

    # closed-form total to three significant figures
    closed = pe.closed_form_total("qdrift", q_qd)
    closed_ok = abs(closed - 1.064e14) <= 0.0005e14

    # speedup advantage vanishes as P_f shrinks for a large-L profile
    pf_grid = np.logspace(-6, -2, 40)
    ratios = [
        pe.pe_speedup(pe.PEQuery(1.0, 1e-4, float(p), L=1000, lam_max=1.0)).pipeline_ratio
        for p in pf_grid
    ]
    crossing_ok = ratios[0] < 1 < ratios[-1]

    _report(
        "phase-estimation pipeline",
        sums_ok and pf_ok and closed_ok and crossing_ok,
        f"sum/geometric deltas {qd_delta:.1e} and {tr_delta:.1e} (m={plan_tr.m}), "
        f"closed form {closed:.4g}",
    )


def test_determinism_and_verify_exit(tmp_path, capsys):
    h_path = tmp_path / "h.txt"
    h_path.write_text("1.0 ZZ\n0.5 XI\n-0.25 IY\n")
    args = ["compile", "--ham", str(h_path), "--t", "1", "--eps", "1e-3", "--seed", "7"]
    out1, out2 = tmp_path / "a.circ", tmp_path / "b.circ"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    verify_code = cli.main(["verify"])
    capsys.readouterr()  # swallow subcommand output
    _report(
        "determinism and verify gate",
        identical and verify_code == 0,
        "byte-identical recompiles, verify suite exit 0",
    )

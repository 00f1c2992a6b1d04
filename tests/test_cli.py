import gc
import itertools
import json
import math
import re
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from oracles import log_bit_counts, log_sum
from qdriftlab import channels, cli, compiler, trotter
from qdriftlab.cli import EXIT_BOUND, EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, main
from qdriftlab.hamiltonian import WeightProfile, parse_hamiltonian

HAM_TEXT = "1.0 ZZ\n0.5 XI\n-0.25 IY\n"
SMALL_HAM = "0.5 Z\n0.5 X\n"


@pytest.fixture
def ham_file(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text(HAM_TEXT)
    return path


@pytest.fixture
def small_ham_file(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text(SMALL_HAM)
    return path


class TestCompileCommand:
    def test_writes_circuit_and_prints_summary(self, ham_file, tmp_path, capsys):
        out = tmp_path / "c.circ"
        code = main([
            "compile", "--ham", str(ham_file), "--t", "1", "--eps", "1e-3",
            "--seed", "7", "--out", str(out),
        ])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) >= {"N", "tau", "lambda", "mode", "seed"}
        assert summary["lambda"] == 1.75
        assert summary["mode"] == "exact"
        lines = out.read_text().splitlines()
        assert lines[0] == "# qdrift-circ v1"
        assert len(lines) == 4 + summary["N"]

    def test_reruns_are_byte_identical(self, ham_file, tmp_path):
        args = ["compile", "--ham", str(ham_file), "--t", "2", "--eps", "1e-2", "--seed", "99"]
        out1, out2 = tmp_path / "a.circ", tmp_path / "b.circ"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_controlled_emits_crot_and_same_count(self, ham_file, tmp_path, capsys):
        plain, ctrl = tmp_path / "p.circ", tmp_path / "c.circ"
        base = ["compile", "--ham", str(ham_file), "--t", "1", "--eps", "1e-2", "--seed", "4"]
        main(base + ["--out", str(plain)])
        n_plain = json.loads(capsys.readouterr().out)["N"]
        main(base + ["--controlled", "--out", str(ctrl)])
        summary = json.loads(capsys.readouterr().out)
        assert summary["N"] == n_plain
        assert summary["elementary"] == {"rotations": 2 * n_plain, "control_x": 2 * n_plain}
        body = ctrl.read_text().splitlines()[4:]
        assert all(ln.startswith("CROT ") for ln in body)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("x.y ZZ\n")
        code = main(["compile", "--ham", str(bad), "--t", "1", "--eps", "1e-3", "--seed", "1",
                     "--out", str(tmp_path / "o.circ")])
        assert code == EXIT_PARSE
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_is_parse_error(self, tmp_path):
        code = main(["compile", "--ham", str(tmp_path / "nope.txt"), "--t", "1",
                     "--eps", "1e-3", "--seed", "1", "--out", str(tmp_path / "o.circ")])
        assert code == EXIT_PARSE

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hamtxt"
        bad.write_bytes(b"\xff\xfe1.0 ZZ\n")
        code = main(["compile", "--ham", str(bad), "--t", "1", "--eps", "1e-3", "--seed", "1",
                     "--out", str(tmp_path / "o.circ")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: cannot decode ") and str(bad) in err
        assert err.count("\n") == 1

    def test_l1_norm_overflow_is_parse_error(self, tmp_path, capsys):
        ham = tmp_path / "big.hamtxt"
        ham.write_text("1e308 ZZ\n1e308 XX\n")
        code = main(["compile", "--ham", str(ham), "--t", "1", "--eps", "1e-3", "--seed", "1",
                     "--out", str(tmp_path / "o.circ")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "l1 norm" in err
        assert err.count("\n") == 1

    def test_domain_error_exit_code(self, ham_file, tmp_path):
        code = main(["compile", "--ham", str(ham_file), "--t", "-1", "--eps", "1e-3",
                     "--seed", "1", "--out", str(tmp_path / "o.circ")])
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("t, eps", [("1e200", "1e-3"), ("1e150", "1e-12")])
    def test_approx_count_overflow_is_domain_error(self, ham_file, tmp_path, t, eps, capsys):
        argv = ["compile", "--ham", str(ham_file), "--t", t, "--eps", eps, "--seed", "1",
                "--mode", "approx", "--out", str(tmp_path / "c.circ")]
        assert main(argv) == EXIT_DOMAIN
        lam = parse_hamiltonian(HAM_TEXT).lam
        query = f"lam={lam}, t={float(t)}, eps={float(eps)}"
        assert capsys.readouterr().err == f"error: gate count overflows a float ({query})\n"

    def test_outdir_env_var(self, ham_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QDRIFTLAB_OUTDIR", str(tmp_path / "results"))
        code = main(["compile", "--ham", str(ham_file), "--t", "1", "--eps", "1e-2",
                     "--seed", "1", "--out", "run.circ"])
        assert code == EXIT_OK
        assert (tmp_path / "results" / "run.circ").exists()
        # Without --out, each file is named after the input's stem.
        for argv, name in [
            (["compile", "--ham", str(ham_file), "--t", "1", "--eps", "1e-2", "--seed", "1"], "h.circ"),
            (["truncate", "--ham", str(ham_file), "--eps", "0.3"], "h.truncated.txt"),
        ]:
            capsys.readouterr()
            assert main(argv) == EXIT_OK
            out = tmp_path / "results" / name
            assert json.loads(capsys.readouterr().out)["file"] == str(out)
            assert out.read_text()


class TestCostCommand:
    def test_profile_input_row_shape(self, capsys):
        code = main(["cost", "--L", "10", "--Lambda", "1", "--lambda", "10",
                     "--t", "1", "--eps", "1e-3"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,order,variant,r,gates,bound,t,eps,L,Lambda,lambda"
        assert len(lines) == 1 + 9
        assert all(len(ln.split(",")) == 11 for ln in lines)

    def test_qdrift_row_uses_exact_count(self, capsys):
        from qdriftlab.trotter import gate_count_exact

        main(["cost", "--L", "10", "--Lambda", "1", "--lambda", "10", "--t", "1", "--eps", "1e-3"])
        lines = capsys.readouterr().out.strip().splitlines()
        qdrift_row = next(ln for ln in lines[1:] if ln.startswith("qdrift,"))
        assert int(qdrift_row.split(",")[4]) == gate_count_exact(10.0, 1.0, 1e-3)

    def test_json_format(self, capsys):
        code = main(["cost", "--L", "2", "--Lambda", "1", "--lambda", "1.5",
                     "--t", "1", "--eps", "1e-3", "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 9
        assert rows[0]["method"] == "qdrift"

    def test_ham_input_with_fairness(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("0.5 ZZ\n0.3 XI\n0.0005 IY\n")
        main(["cost", "--ham", str(path), "--t", "1", "--eps", "1e-3"])
        with_fair = capsys.readouterr().out.strip().splitlines()
        main(["cost", "--ham", str(path), "--t", "1", "--eps", "1e-3", "--no-fairness"])
        without = capsys.readouterr().out.strip().splitlines()
        # fairness truncation drops the 5e-4 term, so L differs
        assert with_fair[1].split(",")[8] == "2"
        assert without[1].split(",")[8] == "3"

    def test_requires_profile_or_ham(self):
        assert main(["cost", "--t", "1", "--eps", "1e-3"]) == EXIT_DOMAIN

    def test_tiny_t_gives_one_gate_and_zero_bound(self, capsys):
        # lam * t underflows to 0, so every bound is 0 and every solve stops at 1
        code = main(["cost", "--L", "1", "--Lambda", "1e-10", "--lambda", "1e-10",
                     "--t", "1e-320", "--eps", "1e-3"])
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in capsys.readouterr().out.strip().splitlines()[1:]]
        assert len(rows) == 9
        assert rows[0][:6] == ["qdrift", "", "", "", "1", "0"]
        assert all(row[3] == "1" and row[5] == "0" for row in rows[1:])
        gates = {row[0] + row[1] + row[2]: int(row[4]) for row in rows[1:]}
        assert gates == {"trotter1det": 1, "trotter1random": 1, "suzuki2det": 2, "suzuki2random": 2,
                         "suzuki4det": 10, "suzuki4random": 10, "suzuki6det": 50, "suzuki6random": 50}


class TestSweepCommand:
    def test_grid_shape_and_ascending_t(self, capsys):
        code = main(["sweep", "--L", "4", "--Lambda", "1", "--lambda", "2",
                     "--t-min", "0.1", "--t-max", "100", "--points", "7", "--eps", "1e-3"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 7 * 9
        ts = [float(ln.split(",")[6]) for ln in lines[1:]]
        assert ts == sorted(ts)

    def test_crossover_row_appended(self, capsys):
        code = main(["sweep", "--L", "100", "--Lambda", "1", "--lambda", "10",
                     "--t-min", "1", "--t-max", "1e6", "--points", "13",
                     "--eps", "1e-3", "--crossover"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 13 * 9 + 1
        assert lines[-1].startswith("crossover,")

    OVERFLOW_SWEEP = ["sweep", "--L", "10", "--Lambda", "1.0", "--lambda", "10.0", "--t-min", "1",
                      "--t-max", "1e80", "--points", "5", "--eps", "1e-3"]
    # The profile on which the crossover scan used to solve the sweep's grid again.
    REUSE_SWEEP = ["sweep", "--L", "2000", "--Lambda", "0.01", "--lambda", "5.0",
                   "--t-min", "0.001", "--t-max", "1e10", "--eps", "0.001"]

    def test_crossover_survives_every_method_overflowing(self, capsys):
        assert main(self.OVERFLOW_SWEEP) == EXIT_OK
        table = capsys.readouterr().out.splitlines()
        assert main(self.OVERFLOW_SWEEP + ["--crossover"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "overflow" in "".join(table)
        assert lines[: len(table)] == table
        assert len(lines) - len(table) <= 1
        assert all(line.startswith("crossover,") for line in lines[len(table):])

    @pytest.mark.parametrize("points", [50, 25])
    def test_crossover_row_equals_standalone_scan(self, points, capsys):
        # At 50 points the sweep's grid is the scan's grid; at 25 only the ends coincide.
        assert main(self.REUSE_SWEEP + ["--points", str(points), "--crossover"]) == EXIT_OK
        last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        t_star = trotter.crossover_time(WeightProfile(2000, 5.0, 0.01), 1e-3, (1e-3, 1e10))
        assert t_star is not None
        assert last[0] == "crossover"
        assert last[6] == cli._fmt(t_star)

    def test_crossover_reuses_the_sweep_grid(self, monkeypatch, capsys):
        # Product-formula solves, one per _count call on a product method.
        calls = []
        count = trotter._count
        monkeypatch.setattr(
            trotter, "_count", lambda method, *args: calls.append(method.family != "qdrift") or count(method, *args)
        )
        assert main(self.REUSE_SWEEP + ["--points", "50", "--crossover"]) == EXIT_OK
        # 400 for the sweep; 656 when the scan solved its own 50-point grid
        # again, and 480 when each midpoint solved every candidate.  It
        # stops at the first candidate cheaper than qDRIFT: 448.
        assert sum(calls) <= 460
        calls.clear()
        assert main(self.REUSE_SWEEP + ["--points", "50"]) == EXIT_OK
        assert sum(calls) == 400

    def test_plan_work_is_counted_not_timed(self, monkeypatch, tmp_path):
        # One benchmark plan op on the sweep-a golden profile: a sweep with
        # its crossover, then a phase-estimation grid.  Bound evaluations
        # count every call the search makes of the bound it is given, for
        # the product formulas and qDRIFT alike; formatted floats count _fmt
        # calls on a float.  Before each bound came from the search and each
        # query's shared cells were formatted once, these were 5,792 and
        # 2,532; before the crossover scan stopped at the first candidate
        # cheaper than qDRIFT, 4,041 evaluations.
        counts = {"bounds": 0, "floats": 0}
        search, fmt = trotter._smallest_within, cli._fmt

        def counted_search(bound, *args, **kwargs):
            def counted(n):
                counts["bounds"] += 1
                return bound(n)

            return search(counted, *args, **kwargs)

        def counted_fmt(x):
            counts["floats"] += isinstance(x, float)
            return fmt(x)

        monkeypatch.setattr(trotter, "_smallest_within", counted_search)
        monkeypatch.setattr(cli, "_fmt", counted_fmt)
        profile = ["--L", "2000", "--Lambda", "0.01", "--lambda", "5.0"]
        sweep = self.REUSE_SWEEP + ["--points", "50", "--crossover"]
        assert main(sweep + ["--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert main(["phase-est", *profile, "--delta-e", "0.005", "--pf-min", "0.001", "--pf-max", "0.1",
                     "--pf-points", "20", "--out", str(tmp_path / "p.csv")]) == EXIT_OK
        assert counts["bounds"] <= 4_000
        assert counts["floats"] <= 1_000

    def test_huge_t_serializes_log10_and_overflow(self, capsys):
        code = main(["sweep", "--L", "10", "--Lambda", "1", "--lambda", "10",
                     "--t-min", "1", "--t-max", "1e10", "--points", "5", "--eps", "1e-3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "log10_gates=" in out
        assert "overflow" in out
        lines = out.strip().splitlines()
        assert all(len(ln.split(",")) == 11 for ln in lines)

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--L", "4", "--Lambda", "1", "--lambda", "2", "--t-min", "0.5",
                "--t-max", "50", "--points", "5", "--eps", "1e-3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestPhaseEstCommand:
    def test_single_pf_rows(self, capsys):
        code = main(["phase-est", "--lambda", "1", "--Lambda", "1", "--L", "100",
                     "--delta-e", "1e-4", "--pf", "0.05"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,P_f,p_f_opt,eps_tot,m,total_gates,closed_form_gates,ratio"
        assert len(lines) == 3
        qdrift_row = lines[1].split(",")
        assert qdrift_row[0] == "qdrift"
        assert float(qdrift_row[6]) == pytest.approx(1.064e14, rel=5e-4)

    def test_grid_row_count_and_shared_ratio(self, capsys):
        code = main(["phase-est", "--lambda", "1", "--Lambda", "1", "--L", "50",
                     "--delta-e", "1e-4", "--pf-min", "1e-3", "--pf-max", "1e-1",
                     "--pf-points", "20"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 40
        # per P_f, both method rows carry the same trotter/qdrift ratio
        for i in range(1, len(lines), 2):
            assert lines[i].split(",")[7] == lines[i + 1].split(",")[7]

    def test_ratio_is_trotter_over_qdrift(self, capsys):
        main(["phase-est", "--lambda", "1", "--Lambda", "1", "--L", "100",
              "--delta-e", "1e-4", "--pf", "0.05"])
        lines = capsys.readouterr().out.strip().splitlines()
        qd = float(lines[1].split(",")[5])
        tr = float(lines[2].split(",")[5])
        assert float(lines[1].split(",")[7]) == pytest.approx(tr / qd, rel=1e-12)

    def test_invalid_pf(self):
        assert main(["phase-est", "--lambda", "1", "--delta-e", "1e-4", "--pf", "1.5"]) \
            == EXIT_DOMAIN

    def test_delta_e_equal_to_lambda_is_planned(self, capsys):
        # delta = delta_E / (2 lam) = 1/2 is inside the model's domain.
        assert main("phase-est --lambda 1 --delta-e 1 --pf 0.5".split()) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 3

    def test_delta_e_above_lambda_is_domain_error(self, capsys):
        assert main("phase-est --lambda 1 --delta-e 1.5 --pf 0.5".split()) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err == "error: delta_E=1.5 exceeds lam=1.0\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, message",
        [
            ("phase-est --lambda 1 --delta-e 1e-200 --pf 0.05",
             "error: phase-estimation budget overflows a float (delta_E=1e-200, P_f=0.05)"),
            ("phase-est --lambda 1e300 --Lambda 1e300 --L 10 --delta-e 1e-10 --pf 0.5",
             "error: phase-estimation budget overflows a float (delta_E=1e-10, P_f=0.5)"),
            # eps_tot = (P_f - p_f) / 2 rounds to 0: this was a ZeroDivisionError traceback.
            ("phase-est --lambda 1.6e-198 --Lambda 2.2e253 --delta-e 5.5e-273 --pf 1.5e-323",
             "error: phase-estimation budget overflows a float (delta_E=5.5e-273, P_f=1.5e-323)"),
        ],
        ids=["tiny-delta-e", "huge-lambda", "subnormal-pf"],
    )
    def test_budget_overflow_is_domain_error(self, command, message, capsys):
        assert main(command.split()) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, message",
        [
            # lam^2 and delta_E^2 underflow to 0 in the closed-form column.
            ("--lambda 1e-300 --Lambda 1e-300 --delta-e 1e-300 --pf 0.5", None),
            # lam^2 overflows in the closed-form column.
            ("--lambda 1e300 --Lambda 1 --delta-e 1e200 --pf 0.5", None),
            ("--lambda 1e300 --Lambda 1e-300 --delta-e 1e290 --pf 0.5",
             "error: lam_max / (2 lam) is 0 in floating point (lam_max=1e-300, lam=1e+300)"),
            ("--lambda 1e308 --delta-e 1e308 --pf 0.5",
             "error: delta_E / (2 lam) is 0 in floating point (delta_E=1e+308, lam=1e+308)"),
        ],
        ids=["underflow", "overflow", "lam-max-underflow", "two-lam-overflow"],
    )
    def test_extreme_magnitudes(self, command, message, capsys):
        code = main(["phase-est", *command.split()])
        captured = capsys.readouterr()
        if message is None:
            assert code == EXIT_OK and captured.err == ""
        else:
            assert code == EXIT_DOMAIN and captured.err == message + "\n"

    def test_magnitude_grid_ends_in_a_plan_or_a_named_query(self, capsys):
        named = re.compile(
            r"error: (delta_E=\S+ exceeds lam=\S+"
            r"|phase-estimation budget overflows a float \(delta_E=\S+, P_f=\S+\)"
            r"|(delta_E|lam_max) / \(2 lam\) is 0 in floating point \((delta_E|lam_max)=\S+, lam=\S+\))\n"
        )
        values = ("1e-300", "1e-100", "1", "1e100", "1e300")
        grid = itertools.product(values, values, values, ("1e-3", "0.5"), ("1", "10000"))
        zero_totals = 0
        for lam, lam_max, delta_e, pf, L in grid:
            argv = ["phase-est", "--lambda", lam, "--Lambda", lam_max, "--delta-e", delta_e,
                    "--pf", pf, "--L", L]
            code = main(argv)
            captured = capsys.readouterr()
            err = captured.err
            assert (code, err) == (EXIT_OK, "") or (code == EXIT_DOMAIN and named.fullmatch(err)), argv
            if code != EXIT_OK:
                continue
            log_lam_a = math.log(float(lam_max)) - math.log(2.0 * float(lam))
            for row in captured.out.splitlines()[1:]:
                method, _, _, eps_tot, m, total, closed, ratio = row.split(",")
                assert all(math.isfinite(float(v)) for v in (total, closed, ratio)), argv
                # Each total against its per-bit counts summed in log space.
                log_s = log_lam_a if method == "trotter" else 0.0
                expected = log_sum(log_bit_counts(method, int(m), float(eps_tot), int(L), log_s))
                if float(total) == 0.0:
                    assert method == "trotter" and expected < math.log(5e-324), argv
                    zero_totals += 1
                elif float(total) >= sys.float_info.min:
                    assert math.log(float(total)) == pytest.approx(expected, abs=1e-12), argv
        # These true totals are below the smallest float.
        assert zero_totals == 8

    @pytest.mark.parametrize(
        "command",
        [
            "--lambda 1e300 --Lambda 1 --delta-e 1e200 --pf 0.5",
            "--lambda 1e-100 --Lambda 1e-300 --delta-e 1e-100 --pf 0.5",
        ],
        ids=["tiny-lam-max", "tiny-lam-max-b"],
    )
    def test_tiny_trotter_total_is_printed(self, command, capsys):
        # lam_max_A^3 underflows; the totals are about 1.5e-297 and 3.1e-298.
        assert main(["phase-est", *command.split()]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["qdrift", "trotter"]
        assert float(rows[1][5]) > 0

    @pytest.mark.parametrize("delta_e", ["1e-103", "1e-120", "1e-150"])
    def test_deep_plans_fit(self, delta_e, capsys):
        # 8^j overflows for the trotter plan's last bits, but its total fits.
        assert main(f"phase-est --lambda 1 --delta-e {delta_e} --pf 0.5".split()) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        for row in captured.out.splitlines()[1:]:
            assert 0 < float(row.split(",")[5]) < math.inf


class TestVerifyCommand:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_domain_is_domain_error(self, seed, capsys):
        assert main(["verify", "--seed", seed]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert captured.out == ""

    def test_seed_checked_with_explicit_hamiltonian(self, small_ham_file, capsys):
        assert main(["verify", "--ham", str(small_ham_file), "--seed", "-1"]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: seed must be in [0, 2**64), got -1\n"

    @pytest.mark.parametrize("with_ham", [True, False], ids=["ham", "builtin-suite"])
    def test_seed_outside_domain_builds_no_kraus_data(self, with_ham, small_ham_file, monkeypatch, capsys):
        built = []
        kraus_data = channels._KrausData
        monkeypatch.setattr(channels, "_KrausData", lambda h: built.append(h) or kraus_data(h))
        argv = ["verify", "--seed", str(2**64)] + (["--ham", str(small_ham_file)] if with_ham else [])
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {2**64}\n"
        assert built == []

    @pytest.mark.parametrize("with_ham, generators", [(True, 1), (False, 2)], ids=["ham", "builtin-suite"])
    def test_verify_builds_one_generator_per_use_of_the_seed(
        self, with_ham, generators, ham_file, monkeypatch, capsys
    ):
        # The seed is checked without a generator: the composition probes build
        # one, and the built-in suite one more for its random inputs.
        keys = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda **kw: keys.append(kw["key"]) or philox(**kw))
        argv = ["verify", "--seed", "5"] + (["--ham", str(ham_file)] if with_ham else [])
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert keys == [5] * generators

    def test_huge_t_bound_is_inf_not_an_error(self, capsys):
        assert main(["verify", "--t", "5000"]) == EXIT_OK
        assert "VERIFY: PASS" in capsys.readouterr().out

    def test_builtin_suite_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "VERIFY: PASS" in out
        assert "[FAIL]" not in out

    def test_csv_output(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,d_lower,bound,ratio"
        assert len(lines) > 1
        for ln in lines[1:]:
            n, d_lower, bound, _ = ln.split(",")
            assert float(d_lower) <= float(bound)

    def test_negative_control_flags_but_exits_zero(self, capsys):
        assert main(["verify", "--negative-control"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "degradation: present" in out

    def test_negative_control_strict_exits_bound(self, capsys):
        assert main(["verify", "--negative-control", "--strict"]) == EXIT_BOUND
        assert "VERIFY: FAIL" in capsys.readouterr().out

    def test_explicit_hamiltonian(self, small_ham_file, capsys):
        assert main(["verify", "--ham", str(small_ham_file)]) == EXIT_OK
        assert "bound small" in capsys.readouterr().out

    def test_single_term_distances_vanish(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("0.7 Z\n")
        out = tmp_path / "rows.csv"
        assert main(["verify", "--ham", str(path), "--out", str(out)]) == EXIT_OK
        report = capsys.readouterr().out
        assert "single term" in report
        for ln in out.read_text().strip().splitlines()[1:]:
            assert float(ln.split(",")[1]) <= 1e-12

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--t", "0"], "error: --t must be finite and > 0, got 0.0"),
            (["--t", "-1"], "error: --t must be finite and > 0, got -1.0"),
            (["--t", "nan"], "error: --t must be finite and > 0, got nan"),
            (["--t", "inf"], "error: --t must be finite and > 0, got inf"),
            (["--tol", "-1"], "error: --tol must be finite and > 0, got -1.0"),
            (["--tol", "0"], "error: --tol must be finite and > 0, got 0.0"),
            (["--ham", "missing.txt", "--t", "0"], "error: --t must be finite and > 0, got 0.0"),
        ],
    )
    def test_t_and_tol_must_be_finite_and_positive(self, args, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", *args]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    def test_tolerance_flag(self, small_ham_file, capsys):
        # an absurdly tight tolerance makes the TP/CP validity check fail
        assert main(["verify", "--ham", str(small_ham_file), "--tol", "1e-30"]) == EXIT_BOUND
        assert "channel validity" in capsys.readouterr().out

    def test_violating_rows_are_listed(self, small_ham_file, monkeypatch, capsys):
        # A bound below every measured distance fails each row.
        monkeypatch.setattr(channels, "segment_error_bound", lambda lam, t, n: 1e-300)
        assert main(["verify", "--ham", str(small_ham_file)]) == EXIT_BOUND
        lines = capsys.readouterr().out.splitlines()
        assert any(ln.startswith("[FAIL] bound small (") for ln in lines)
        violating = [ln for ln in lines if ln.startswith("[INFO] violating row small: ")]
        assert [ln.split(": ", 1)[1].split()[0] for ln in violating] == [f"N={n}" for n in cli.VERIFY_N_LIST]
        assert all(ln.endswith(f" bound={cli._fmt(1e-300)}") for ln in violating)
        assert lines[-1] == "VERIFY: FAIL"

    def test_undefined_slope_does_not_claim_a_single_term(self, ham_file, monkeypatch, capsys):
        # Distances that all underflow to 0 leave the slope undefined on a 3-term input.
        monkeypatch.setattr(channels, "decay_slope", lambda rows: math.nan)
        assert main(["verify", "--ham", str(ham_file)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "[INFO] slope h: fewer than two nonzero distances, slope undefined" in lines
        assert not any("single term" in ln for ln in lines)

    def test_builds_no_sampler(self, ham_file, monkeypatch, capsys):
        # verify certifies its input; the alias sampler is tested in the suite.
        def refuse(self, weights):
            raise AssertionError("verify built an AliasSampler")

        monkeypatch.setattr(compiler.AliasSampler, "__init__", refuse)
        assert main(["verify"]) == EXIT_OK
        assert main(["verify", "--ham", str(ham_file)]) == EXIT_OK
        assert "VERIFY: PASS" in capsys.readouterr().out

    def test_seed_reaches_only_the_composition_probes(self, ham_file, capsys):
        runs = []
        for seed in ("1", "2"):
            assert main(["verify", "--ham", str(ham_file), "--seed", seed]) == EXIT_OK
            runs.append(capsys.readouterr().out.splitlines())
        assert len(runs[0]) == len(runs[1])
        differ = [(a, b) for a, b in zip(*runs) if a != b]
        assert differ
        composition = ("[PASS] composition subadditivity ", "[PASS] expectation-value cap ")
        assert all(a.startswith(composition) and b.startswith(composition) for a, b in differ)


class TestTruncateCommand:
    def test_writes_canonical_truncation(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("0.5 ZZ\n0.3 XI\n0.001 IY\n0.0005 YY\n")
        out = tmp_path / "t.txt"
        code = main(["truncate", "--ham", str(path), "--eps", "0.002", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["L_after"] == 2
        assert summary["removed_weight"] == pytest.approx(0.0015, rel=1e-12)
        lines = out.read_text().splitlines()
        assert lines[0] == "# hamtxt v1"
        assert [ln.split()[1] for ln in lines[1:]] == ["ZZ", "XI"]

    def test_budget_too_large_is_domain_error(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.5 ZZ\n0.3 XI\n")
        assert main(["truncate", "--ham", str(path), "--eps", "0.9",
                     "--out", str(tmp_path / "t.txt")]) == EXIT_DOMAIN


# The exact stderr line of a rejected numeric argument, pinned from the code
# before the finite-and-positive checks were merged into one.
ERROR_TEXT = [
    ("compile --ham {ham} --t 0 --eps 1e-3 --seed 1", "error: --t must be finite and > 0, got 0.0"),
    ("cost --L 2 --Lambda 0.5 --lambda 1.0 --t 1 --eps -1",
     "error: --eps must be finite and > 0, got -1.0"),
    ("sweep --L 2 --Lambda 0.5 --lambda 1.0 --t-min nan --t-max 10 --eps 1e-3",
     "error: --t-min must be finite and > 0, got nan"),
    ("phase-est --lambda inf --delta-e 1e-3 --pf 0.1", "error: --lambda must be finite and > 0, got inf"),
    ("phase-est --lambda 1.0 --delta-e 0 --pf 0.1", "error: --delta-e must be finite and > 0, got 0.0"),
    ("cost --L 1 --Lambda inf --lambda inf --t 1 --eps 1e-3", "error: lam must be finite and > 0, got inf"),
    ("truncate --ham {ham} --eps -0.5", "error: --eps must be finite and > 0, got -0.5"),
    ("sweep --L 2 --Lambda 0.5 --lambda 1.0 --t-min 1 --t-max inf --eps 1e-3",
     "error: --t-max must be finite and > 0, got inf"),
    ("phase-est --lambda 1.0 --Lambda nan --delta-e 0.1 --pf 0.1",
     "error: --Lambda must be finite and > 0, got nan"),
    ("phase-est --lambda 1.0 --delta-e 1e-3 --pf-min 1e-3 --pf-max 0.1 --pf-points 0",
     "error: --pf-points must be >= 1, got 0"),
    ("phase-est --lambda 1.0 --delta-e 1e-3 --pf-min 1e-3 --pf-max 0.1 --pf-points -3",
     "error: --pf-points must be >= 1, got -3"),
    # Past the grid cap nothing is allocated.
    ("sweep --L 2 --Lambda 0.5 --lambda 1.0 --t-min 1 --t-max 10 --points 10000000000000 --eps 1e-3",
     "error: --points must be <= 1000000, got 10000000000000"),
    ("phase-est --lambda 1.0 --delta-e 1e-3 --pf-min 1e-3 --pf-max 0.1 --pf-points 10000000000000",
     "error: --pf-points must be <= 1000000, got 10000000000000"),
    ("sweep --L 2 --Lambda 0.5 --lambda 1.0 --t-min 10 --t-max 1 --eps 1e-3",
     "error: need --t-min < --t-max and --points >= 2"),
    ("phase-est --lambda 1.0 --delta-e 1e-3 --pf 0.1 --L 0", "error: --L must be >= 1, got 0"),
    ("phase-est --lambda 1.0 --delta-e 1e-3", "error: provide --pf or both --pf-min and --pf-max"),
    ("phase-est --lambda 1.0 --delta-e 1e-3 --pf-min 0.5 --pf-max 0.1",
     "error: need 0 < --pf-min < --pf-max < 1"),
]


@pytest.mark.parametrize(
    "command, message", ERROR_TEXT, ids=[f"{c.split()[0]}-{i}" for i, (c, _) in enumerate(ERROR_TEXT)]
)
def test_rejected_argument_error_text(command, message, ham_file, capsys):
    assert main(command.format(ham=ham_file).split()) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


# A 4-qubit file of L terms; L = 1 has vanishing distances.
CHANNEL_COUNT_HAMS = {
    1: "0.7 ZXIY\n",
    4: "0.8 ZZII\n-0.45 IXXI\n0.3 IIYY\n0.25 XIIZ\n",
    7: "0.8 ZZII\n-0.45 IXXI\n0.3 IIYY\n0.25 XIIZ\n-0.2 YZXI\n0.15 IIZX\n0.1 ZYIY\n",
}


# The 5-qubit file of the `verify` golden pins; it is over the
# channel-power cap, so its run skips the composition check.
WIDE5_HAM = "0.7 ZZIIX\n-0.4 IXXIY\n0.3 IIYYZ\n0.2 XIIZI\n-0.15 YZXIX\n"


def _record_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.setdefault(name, []).append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class TestVerifyChannelBuilds:
    """`verify` runs the public checks, each from one closed-form step per row."""

    @pytest.mark.parametrize("negative_control", [False, True], ids=["matched", "negative-control"])
    @pytest.mark.parametrize("L", sorted(CHANNEL_COUNT_HAMS))
    def test_channel_and_exponential_counts(self, L, negative_control, tmp_path, monkeypatch, capsys):
        path = tmp_path / "h.txt"
        path.write_text(CHANNEL_COUNT_HAMS[L])
        calls = {}
        _record_calls(monkeypatch, np.linalg, "eigh", calls)
        for name in ("gates", "evolution"):
            _record_calls(monkeypatch, channels._KrausData, name, calls)
        argv = ["verify", "--ham", str(path)] + (["--negative-control"] if negative_control else [])
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        # One Kraus build per Hamiltonian: one eigh of the 16 x 16 H gives
        # the three segment targets, the negative control's three and the
        # composition target; validity_check needs none.
        assert [a[0].shape for a in calls["eigh"]] == [(16, 16)]
        assert len(calls["evolution"]) == (7 if negative_control else 4)
        assert len(calls["gates"]) == (6 if negative_control else 3)

    @pytest.mark.parametrize("negative_control", [False, True], ids=["matched", "negative-control"])
    def test_eigendecompositions_do_not_grow_with_the_n_list(
        self, negative_control, ham_file, monkeypatch, capsys
    ):
        # Six rows per Hamiltonian in place of three; the eigh count is the
        # one pinned above.
        monkeypatch.setattr(cli, "VERIFY_N_LIST", (10, 30, 100, 300, 1000, 3000))
        calls = {}
        _record_calls(monkeypatch, np.linalg, "eigh", calls)
        argv = ["verify", "--ham", str(ham_file)] + (["--negative-control"] if negative_control else [])
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert len(calls["eigh"]) == 1

    def test_builtin_suite_eigendecompositions_per_hamiltonian(self, monkeypatch, capsys):
        # One per Hamiltonian with the negative control: the mismatched rows
        # and the composition check read the matched rows' decomposition.
        calls = {}
        _record_calls(monkeypatch, np.linalg, "eigh", calls)
        assert main(["verify", "--negative-control"]) == EXIT_OK
        hamiltonians = capsys.readouterr().out.count("[PASS] bound ")
        assert (hamiltonians, len(calls["eigh"])) == (8, 8)

    def test_standalone_validity_check_takes_no_eigh(self, monkeypatch):
        calls = {}
        _record_calls(monkeypatch, np.linalg, "eigh", calls)
        tp_error, cp_min = channels.validity_check(parse_hamiltonian(CHANNEL_COUNT_HAMS[7]), 1.0, 10)
        assert tp_error <= 1e-10 and cp_min >= -1e-10
        assert "eigh" not in calls

    def test_validity_gets_n10_and_composition_gets_n100(self, ham_file, monkeypatch, capsys):
        seen = {}
        for name in ("verify_bound", "validity_check", "composition_check", "_KrausData"):
            _record_calls(monkeypatch, channels, name, seen)
        assert main(["verify", "--ham", str(ham_file), "--t", "0.8"]) == EXIT_OK
        capsys.readouterr()
        h = parse_hamiltonian(HAM_TEXT)
        # The three public checks, on one Kraus build.
        assert [len(seen[name]) for name in sorted(seen)] == [1, 1, 1, 1]
        expected = {"verify_bound": (10, 100, 1000), "validity_check": 10, "composition_check": 100}
        for name, n in expected.items():
            got_h, t_arg, n_arg = seen[name][0][:3]
            assert (got_h.serialize(), t_arg, n_arg) == (h.serialize(), 0.8, n)

    def test_checks_share_kraus_data_only_inside_the_block(self, monkeypatch):
        h = parse_hamiltonian(CHANNEL_COUNT_HAMS[4])
        calls = {}
        _record_calls(monkeypatch, np.linalg, "eigh", calls)
        channels.verify_bound(h, 1.0, (10,))
        channels.composition_check(h, 1.0, 10, trials=2)
        assert len(calls.pop("eigh")) == 2
        with channels.shared_kraus_data():
            channels.verify_bound(h, 1.0, (10,))
            channels.composition_check(h, 1.0, 10, trials=2)
            channels.verify_bound(parse_hamiltonian(CHANNEL_COUNT_HAMS[4]), 1.0, (10,))
        assert len(calls.pop("eigh")) == 2
        assert channels._SHARED.get() is None

    @pytest.mark.parametrize("power_cap, checks", [(channels.MAX_POWER_QUBITS, 3), (1, 2)])
    @pytest.mark.parametrize("negative_control", [False, True], ids=["matched", "negative-control"])
    def test_superoperators_alive_at_once(
        self, power_cap, checks, negative_control, ham_file, monkeypatch, capsys
    ):
        # A cap below the input's 2 qubits skips the composition check, as
        # for a 5- or 6-qubit input.  The dense path held up to three
        # d^2 x d^2 superoperators at once (two with the check skipped); the
        # Kraus path holds none: no array that the channel layer or the
        # numpy builders it calls return is superoperator-shaped, during any
        # of the `checks` public checks (rows, validity and, within the cap,
        # composition), and every gate stack they build is L x d x d.
        monkeypatch.setattr(channels, "MAX_POWER_QUBITS", power_cap)
        h = parse_hamiltonian(HAM_TEXT)
        dim = 2**h.n_qubits
        alive: set[int] = set()
        peak = [0]
        called = set()
        gate_shapes = set()

        def arrays(out):
            if isinstance(out, np.ndarray):
                yield out
            elif isinstance(out, (tuple, list)):
                for item in out:
                    yield from arrays(item)

        def tracked(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                for arr in arrays(out):
                    if arr.ndim >= 2 and arr.shape[-2:] == (dim * dim, dim * dim):
                        alive.add(id(arr))
                        weakref.finalize(arr, alive.discard, id(arr))
                        peak[0] = max(peak[0], len(alive))
                return out

            return wrapper

        def counted(fn):
            def wrapper(*args, **kwargs):
                called.add(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        def shaped(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                gate_shapes.add(out.shape)
                return out

            return wrapper

        for name in ("evolution", "gates"):
            monkeypatch.setattr(channels._KrausData, name, tracked(getattr(channels._KrausData, name)))
        for name in ("_signed_paulis", "_kraus_r"):
            monkeypatch.setattr(channels, name, tracked(getattr(channels, name)))
        monkeypatch.setattr(channels, "_rotations", shaped(tracked(channels._rotations)))
        for name in ("kron", "tensordot", "einsum", "concatenate", "outer"):
            monkeypatch.setattr(np, name, tracked(getattr(np, name)))
        for name in ("eigh", "qr", "svd"):
            monkeypatch.setattr(np.linalg, name, tracked(getattr(np.linalg, name)))
        for name in ("verify_bound", "validity_check", "composition_check"):
            monkeypatch.setattr(channels, name, counted(getattr(channels, name)))
        argv = ["verify", "--ham", str(ham_file)] + (["--negative-control"] if negative_control else [])
        assert main(argv) == EXIT_OK
        skipped = "composition: skipped" in capsys.readouterr().out
        assert skipped == (power_cap == 1)
        assert peak[0] == 0
        assert len(called) == checks
        assert gate_shapes == {(h.L, dim, dim)}

    @pytest.mark.parametrize("negative_control", [False, True], ids=["matched", "negative-control"])
    def test_traced_peak_of_5_qubit_verify(self, negative_control, tmp_path, capsys):
        # The dense path held 16 MB superoperators here (a traced peak of
        # 80-96 MB); the Kraus path holds d x d matrices and one 1024 x 6 factor.
        path = tmp_path / "wide5.txt"
        path.write_text(WIDE5_HAM)
        argv = ["verify", "--ham", str(path)] + (["--negative-control"] if negative_control else [])
        assert main(argv) == EXIT_OK  # imports and first-call set-up stay out of the trace
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "composition: skipped" in capsys.readouterr().out
        assert peak < 4_000_000


@pytest.mark.parametrize(
    "command",
    [
        "compile --ham {ham} --t 1 --eps 1e-3 --seed 7",
        "cost --L 10 --Lambda 1 --lambda 10 --t 1 --eps 1e-3",
        "verify --ham {ham}",
    ],
    ids=["compile", "cost", "verify"],
)
def test_unwritable_out_is_a_domain_error(command, ham_file, tmp_path, capsys):
    # A regular file cannot be a directory, so <file>/x cannot be created.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "x"
    assert main(command.format(ham=ham_file).split() + ["--out", str(out)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command, first",
    [
        ("cost --ham {ham} --t 1 --eps 1e-3", "qdrift"),
        ("sweep --L 2000 --Lambda 0.01 --lambda 5.0 --t-min 0.001 --t-max 1e10 --points 8"
         " --eps 0.001 --crossover", "crossover"),
        ("sweep --L 10 --Lambda 1 --lambda 10 --t-min 1 --t-max 1e80 --points 5 --eps 1e-3",
         "qdrift"),
        ("phase-est --lambda 1 --Lambda 1 --L 100 --delta-e 1e-4 --pf-min 0.01 --pf-max 0.1"
         " --pf-points 3", "qdrift"),
        ("verify --ham {ham} --out {out}", None),
    ],
    ids=["cost", "sweep-crossover", "sweep-overflow", "phase-est", "verify"],
)
def test_tables_reach_the_writer_formatted(command, first, fmt, ham_file, tmp_path, monkeypatch, capsys):
    # Every row builder formats each cell once; the writer only joins or zips.
    tables = []
    emit = cli._emit_table
    monkeypatch.setattr(cli, "_emit_table", lambda *args: tables.append(args[1]) or emit(*args))
    argv = command.format(ham=ham_file, out=tmp_path / "out").split()
    if not command.startswith("verify"):
        argv += ["--format", fmt]
    assert main(argv) == EXIT_OK
    (rows,) = tables
    assert rows and all(type(cell) is str for row in rows for cell in row)
    if first == "crossover":
        assert rows[-1][:6] == ["crossover", "", "", "", "", ""]
    elif first is not None:
        assert rows[0][0] == first


@pytest.mark.parametrize(
    "command",
    [
        "compile --ham {ham} --t 1 --eps 1e-3 --seed 7 --out {out}",
        "cost --ham {ham} --t 1 --eps 1e-3",
        "sweep --L 10 --Lambda 1 --lambda 5 --t-min 1 --t-max 100 --points 5 --eps 1e-3"
        " --crossover",
        "phase-est --lambda 1 --Lambda 1 --L 100 --delta-e 1e-4 --pf 0.05",
        "verify --ham {ham} --out {out}",
    ],
    ids=["compile", "cost", "sweep", "phase-est", "verify"],
)
def test_warm_main_call_leaves_no_cyclic_garbage(command, ham_file, tmp_path, capsys):
    # The argument parser is built once per process, so a call after the
    # first creates no reference cycles and repeated calls print and write
    # the same bytes.
    out = tmp_path / "out"
    argv = command.format(ham=ham_file, out=out).split()
    outputs = []
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == EXIT_OK
            garbage = gc.collect()
        finally:
            gc.enable()
        outputs.append((capsys.readouterr(), out.read_bytes() if out.exists() else None))
    assert garbage == 0
    assert cli._parser() is cli._parser()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

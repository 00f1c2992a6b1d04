"""Batch front door: compile circuits, cost reports and sweeps, phase-estimation
budgets, and the numerical verification suite.

Exit codes: 0 success, 2 Hamiltonian parse error, 3 invalid argument or
unwritable output, 4 verification bound violation.  Output is
deterministic: no timestamps, 17-significant-digit decimals, version tags
in headers only.  The QDRIFTLAB_OUTDIR environment variable sets the
default output directory for written files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import trotter
from .trotter import _check_positive
from .weights import HamiltonianError, HamiltonianParseError, WeightProfile

# numpy and the modules built on it (channels, compiler, hamiltonian) are
# imported by the subcommands that read a Hamiltonian or compile, so a
# profile given as numbers is costed and planned without them.
# phase_estimation and json load likewise, only where a subcommand uses
# them: a fresh process pays each import, and most runs need neither.
if TYPE_CHECKING:
    from .hamiltonian import Hamiltonian

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_BOUND = 4

OUTDIR_ENV = "QDRIFTLAB_OUTDIR"

VERIFY_N_LIST = (10, 100, 1000)
SLOPE_BAND = (-2.3, -1.7)
NEGATIVE_CONTROL_FLOOR = -1.5
# Largest --points / --pf-points: a grid is allocated before any row is
# costed, and a sweep writes one row per method at each point.
MAX_GRID_POINTS = 10**6


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def _resolve_out(path: str | None, default_name: str | None = None) -> Path | None:
    outdir = Path(os.environ.get(OUTDIR_ENV, "."))
    if path is not None:
        p = Path(path)
        return p if p.is_absolute() else outdir / p
    if default_name is None:
        return None
    return outdir / default_name


def _write_text(path: Path | None, text: str | Iterable[str]) -> None:
    """Write ``text``, or each piece of an iterable of text, to the file at
    ``path`` with \\n line ends, or to the current ``sys.stdout`` where
    ``path`` is None."""
    pieces = [text] if isinstance(text, str) else text
    try:
        if path is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", newline="\n") as fh:
                fh.writelines(pieces)
    except OSError as exc:
        if path is None:
            # A failed stdout keeps its unwritten bytes; drop it, so the
            # interpreter's exit flush does not report them a second time.
            sys.stdout = None
        raise ValueError(f"cannot write {'stdout' if path is None else path}: {exc.strerror or exc}") from exc


def _emit_table(header: str, rows: list[list[str]], fmt: str, out: Path | None) -> None:
    """Write rows of cells already formatted by ``_fmt`` as CSV or JSON."""
    if fmt == "json":
        import json

        keys = header.split(",")
        text = json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
    else:
        text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    _write_text(out, text)


def _load_hamiltonian(path: str) -> Hamiltonian:
    """The Hamiltonian in the file at ``path``, read as bytes.

    An ASCII file is parsed as bytes; any other is decoded as UTF-8 first.
    Either way the lines end where ``read_text`` would end them.
    """
    from .hamiltonian import parse_hamiltonian

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise HamiltonianParseError(f"cannot read {path}: {exc}") from exc
    if not data.isascii():
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HamiltonianParseError(f"cannot decode {path} as UTF-8: {exc}") from exc
    return parse_hamiltonian(data)


def _profile_from_args(args) -> tuple[WeightProfile, Hamiltonian | None]:
    if args.ham is not None:
        h = _load_hamiltonian(args.ham)
        return h.profile(), h
    if args.L is None or args.lam_max is None or args.lam is None:
        raise ValueError("provide either --ham or all of --L, --Lambda, --lambda")
    return WeightProfile(args.L, args.lam, args.lam_max), None


# ---------------------------------------------------------------------------
# compile / truncate


def cmd_compile(args) -> int:
    import json

    from .compiler import compile_circuit, elementary_gate_estimate

    _check_positive(args.t, "--t")
    _check_positive(args.eps, "--eps")
    # Canonical at load, so the parsed order is freed before the alias build.
    h = _load_hamiltonian(args.ham).canonical()
    circuit = compile_circuit(
        h, args.t, args.eps, args.seed, mode=args.mode, controlled=args.controlled
    )
    out = _resolve_out(args.out, Path(args.ham).stem + ".circ")
    _write_text(out, circuit.iter_text())
    summary = {
        "N": circuit.meta.N,
        "tau": circuit.tau,
        "lambda": circuit.meta.lam,
        "mode": circuit.meta.mode,
        "seed": circuit.meta.seed,
        "file": str(out),
    }
    if args.controlled:
        summary["elementary"] = elementary_gate_estimate(circuit)
    _write_text(None, json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_truncate(args) -> int:
    import json

    _check_positive(args.eps, "--eps")
    h = _load_hamiltonian(args.ham)
    truncated = h.truncate(args.eps)
    out = _resolve_out(args.out, Path(args.ham).stem + ".truncated.txt")
    _write_text(out, truncated.serialize())
    summary = {
        "L_before": h.L,
        "L_after": truncated.L,
        "lam_before": h.lam,
        "lam_after": truncated.lam,
        "removed_weight": h.lam - truncated.lam,
        "file": str(out),
    }
    _write_text(None, json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost / sweep


# One cost-table row per method, qDRIFT first, and its method cells.
_ROW_METHODS = (trotter.QDRIFT, *trotter.DEFAULT_CANDIDATES)
_METHOD_CELLS = [
    [method.family, _fmt(method.order if method.family != "qdrift" else None), method.variant]
    for method in _ROW_METHODS
]


def _cost_rows(query: trotter.CostQuery, counts: list) -> list[list[str]]:
    """Cost-table rows from ``trotter._count`` tuples, one per ``_ROW_METHODS`` entry."""
    # The query's cells are the same on every row: format them once.
    profile = query.profile
    shared = [_fmt(query.t), _fmt(query.eps), _fmt(profile.L), _fmt(profile.lam_max), _fmt(profile.lam)]
    rows = []
    for method_cells, count in zip(_METHOD_CELLS, counts):
        if count is None:
            # Needs more than 2**63 segments; keep the row shape with an
            # explicit sentinel instead of a silent infinity.
            rows.append([*method_cells, "", "overflow", "", *shared])
            continue
        r, gates, bound = count
        gates_cell = _fmt(gates) if gates <= trotter.INT64_MAX else f"log10_gates={_fmt(math.log10(gates))}"
        rows.append([*method_cells, _fmt(r), gates_cell, _fmt(bound), *shared])
    return rows


def _fair_profile(args, eps: float) -> WeightProfile:
    profile, h = _profile_from_args(args)
    if h is not None and args.fairness and eps < h.lam:
        profile = h.truncate(eps).profile()
    return profile


def cmd_cost(args) -> int:
    _check_positive(args.t, "--t")
    _check_positive(args.eps, "--eps")
    query = trotter.CostQuery(_fair_profile(args, args.eps), args.t, args.eps)
    rows = _cost_rows(query, list(trotter._counts(_ROW_METHODS, query)))
    _emit_table(trotter.COST_CSV_HEADER, rows, args.format, _resolve_out(args.out))
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_positive(args.t_min, "--t-min")
    _check_positive(args.t_max, "--t-max")
    _check_positive(args.eps, "--eps")
    if args.t_min >= args.t_max or args.points < 2:
        raise ValueError("need --t-min < --t-max and --points >= 2")
    if args.points > MAX_GRID_POINTS:
        raise ValueError(f"--points must be <= {MAX_GRID_POINTS}, got {args.points}")
    profile = _fair_profile(args, args.eps)
    grid = trotter.log_grid(args.t_min, args.t_max, args.points)
    rows = []
    # Whether qDRIFT costs more at each grid time; the crossover scan
    # reuses these instead of solving those times again.
    verdicts = {}
    for t in grid:
        query = trotter.CostQuery(profile, t, args.eps)
        counts = list(trotter._counts(_ROW_METHODS, query))
        rows.extend(_cost_rows(query, counts))
        verdicts[t] = trotter.qdrift_costs_more(counts)
    if args.crossover:
        t_star = trotter.crossover_time(profile, args.eps, (args.t_min, args.t_max), verdicts=verdicts)
        if t_star is not None:
            cells = (t_star, args.eps, profile.L, profile.lam_max, profile.lam)
            rows.append(["crossover", "", "", "", "", "", *map(_fmt, cells)])
    _emit_table(trotter.COST_CSV_HEADER, rows, args.format, _resolve_out(args.out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# phase-est


def cmd_phase_est(args) -> int:
    from . import phase_estimation as pe

    _check_positive(args.lam, "--lambda")
    _check_positive(args.lam_max, "--Lambda")
    _check_positive(args.delta_e, "--delta-e")
    if args.L < 1:
        raise ValueError(f"--L must be >= 1, got {args.L}")
    if args.pf is not None:
        pf_values = [args.pf]
    else:
        if args.pf_min is None or args.pf_max is None:
            raise ValueError("provide --pf or both --pf-min and --pf-max")
        if not (0 < args.pf_min < args.pf_max < 1):
            raise ValueError("need 0 < --pf-min < --pf-max < 1")
        if args.pf_points < 1:
            raise ValueError(f"--pf-points must be >= 1, got {args.pf_points}")
        if args.pf_points > MAX_GRID_POINTS:
            raise ValueError(f"--pf-points must be <= {MAX_GRID_POINTS}, got {args.pf_points}")
        pf_values = trotter.log_grid(args.pf_min, args.pf_max, args.pf_points)
    rows = []
    for p in pf_values:
        if not (0 < p < 1):
            raise ValueError(f"P_f values must be in (0, 1), got {p}")
        query = pe.PEQuery(
            lam=args.lam, delta_E=args.delta_e, P_f=p, L=args.L, lam_max=args.lam_max
        )
        plans = {method: pe.build_plan(method, query) for method in pe.METHODS}
        ratio = plans["trotter"].total / plans["qdrift"].total
        for method in pe.METHODS:
            plan = plans[method]
            cells = (
                p,
                plan.p_f,
                plan.eps_tot,
                plan.m,
                plan.total,
                pe.closed_form_total(method, query),
                ratio,
            )
            rows.append([method, *map(_fmt, cells)])
    _emit_table(pe.PE_CSV_HEADER, rows, args.format, _resolve_out(args.out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _builtin_suite(seed: int) -> list[tuple[str, Hamiltonian]]:
    from .compiler import rng_from_seed
    from .hamiltonian import Hamiltonian, random_hamiltonian

    suite = [
        ("two-term-1q", Hamiltonian([(0.5, "Z"), (0.5, "X")])),
        ("three-term-2q", Hamiltonian([(0.6, "ZZ"), (0.4, "XI"), (0.25, "IY")])),
        ("four-term-3q", Hamiltonian([(0.5, "ZZI"), (0.35, "IXX"), (0.2, "YIY"), (0.1, "XZX")])),
    ]
    rng = rng_from_seed(seed)
    for i in range(5):
        n = int(rng.integers(1, 4))
        suite.append((f"random-{i}-{n}q", random_hamiltonian(rng, n)))
    return suite


def cmd_verify(args) -> int:
    from . import channels
    from .compiler import check_seed

    # One _KrausData per Hamiltonian for all of its checks.
    with channels.shared_kraus_data():
        _check_positive(args.t, "--t")
        _check_positive(args.tol, "--tol")
        check_seed(args.seed)  # reject a seed outside [0, 2**64) before any channel work
        lines: list[str] = []
        failed: list[bool] = []  # the rigour of each check that failed

        def check(rigorous: bool, name: str, ok: bool, detail: str) -> None:
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
            if not ok:
                failed.append(rigorous)

        if args.ham is not None:
            suite = [(Path(args.ham).stem, _load_hamiltonian(args.ham))]
        else:
            suite = _builtin_suite(args.seed)

        csv_rows: list[list[str]] = []
        for name, h in suite:
            rows = channels.verify_bound(h, args.t, VERIFY_N_LIST)
            tp_error, cp_min = channels.validity_check(h, args.t, VERIFY_N_LIST[0])
            valid = tp_error <= args.tol and cp_min >= -args.tol
            for row in rows:
                csv_rows.append([_fmt(row.N), _fmt(row.d_lower), _fmt(row.bound), _fmt(row.ratio)])
            worst = max(rows, key=lambda r: r.ratio if not math.isnan(r.ratio) else 0.0)
            check(
                True,
                f"bound {name}",
                all(r.ok for r in rows),
                f"worst ratio {worst.ratio:.3e} at N={worst.N}",
            )
            for row in rows:
                if not row.ok:
                    detail = f"N={row.N} d_lower={_fmt(row.d_lower)} bound={_fmt(row.bound)}"
                    lines.append(f"[INFO] violating row {name}: {detail}")
            check(True, f"channel validity {name}", valid, f"TP and CP to {args.tol:g}")
            if args.negative_control:
                slope_rows = channels.verify_bound(h, args.t, VERIFY_N_LIST, tau_scale=2.0)
            else:
                slope_rows = rows
            slope = channels.decay_slope(slope_rows)
            in_band = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
            if h.L == 1:
                lines.append(f"[INFO] slope {name}: distances identically zero (single term)")
            elif math.isnan(slope):
                lines.append(f"[INFO] slope {name}: fewer than two nonzero distances, slope undefined")
            elif args.negative_control:
                # The corrupted angle is expected to push the slope out of band;
                # the failure is flagged but gates only under --strict.
                check(
                    False,
                    f"slope {name} [negative control]",
                    in_band,
                    f"slope {slope:.3f}, band {SLOPE_BAND}",
                )
                degradation = "present" if slope > NEGATIVE_CONTROL_FLOOR else "ABSENT"
                lines.append(f"[INFO] slope {name} degradation: {degradation}")
            else:
                check(False, f"slope {name}", in_band, f"slope {slope:.3f}, band {SLOPE_BAND}")

        first = suite[0][1]
        if first.n_qubits > channels.MAX_POWER_QUBITS:
            lines.append("[INFO] composition: skipped: input exceeds the channel-power qubit cap")
        else:
            trials = channels.composition_check(first, args.t, 100, trials=20, seed=args.seed)
            check(
                True,
                "composition subadditivity",
                all(tr.state_ok for tr in trials),
                f"max d_tr {max(tr.d_tr for tr in trials):.3e} vs budget {trials[0].budget:.3e}",
            )
            check(
                True,
                "expectation-value cap",
                all(tr.expval_ok for tr in trials),
                "2 ||M|| d_tr per trial",
            )

        _write_text(None, [line + "\n" for line in lines])
        out = _resolve_out(args.out)
        if out is not None:
            _emit_table("N,d_lower,bound,ratio", csv_rows, "csv", out)

        # A rigorous failure always gates; any failure gates under --strict.
        if any(failed) or (args.strict and failed):
            _write_text(None, "VERIFY: FAIL\n")
            return EXIT_BOUND
        _write_text(None, "VERIFY: PASS\n")
        return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help goes out through ``_write_text``.

    argparse swallows an OSError from its own write, so a help text sent to
    a full stdout would be lost with exit 0, or be reported by the
    interpreter's exit flush.  Subparsers take the parent's class.
    """

    def print_help(self, file=None) -> None:
        if file is None:
            _write_text(None, self.format_help())
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdriftlab",
        description="Randomized product-formula compiler and gate-cost analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    def add_profile(p):
        p.add_argument("--ham", default=None, help="hamtxt v1 file")
        p.add_argument("--L", type=int, default=None)
        p.add_argument("--Lambda", dest="lam_max", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)

    p = sub.add_parser("compile", help="emit a qdrift-circ v1 gate sequence")
    p.add_argument("--ham", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.add_argument("--controlled", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("truncate", help="drop smallest terms within a weight budget")
    p.add_argument("--ham", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("cost", help="gate-count report at one (t, eps)")
    add_profile(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--no-fairness", dest="fairness", action="store_false",
                   help="skip the smallest-terms truncation before costing")
    add_format(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("sweep", help="log-spaced time sweep of all methods")
    add_profile(p)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--crossover", action="store_true",
                   help="append a crossover-time row when one exists in range")
    p.add_argument("--no-fairness", dest="fairness", action="store_false")
    add_format(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("phase-est", help="phase-estimation gate budgets")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--Lambda", dest="lam_max", type=float, default=1.0)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--delta-e", type=float, required=True)
    p.add_argument("--pf", type=float, default=None)
    p.add_argument("--pf-min", type=float, default=None)
    p.add_argument("--pf-max", type=float, default=None)
    p.add_argument("--pf-points", type=int, default=20)
    add_format(p)
    p.set_defaults(func=cmd_phase_est)

    p = sub.add_parser("verify", help="run the channel-bound certification suite")
    p.add_argument("--ham", default=None, help="small Hamiltonian file (default: built-in suite)")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="trace-preservation / complete-positivity tolerance")
    p.add_argument("--negative-control", action="store_true",
                   help="use the mismatched angle 2*lam*t/N in the slope diagnostic")
    p.add_argument("--strict", action="store_true",
                   help="treat every diagnostic as gating, not just rigorous bounds")
    p.add_argument("--out", default=None, help="write N,d_lower,bound,ratio rows here")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: a parser is a web of cyclic references, and
    # rebuilding it on every call costs time and leaves garbage behind.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        # Inside the guard: --help writes through _write_text.
        args = _parser().parse_args(argv)
        return args.func(args)
    except HamiltonianParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (HamiltonianError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

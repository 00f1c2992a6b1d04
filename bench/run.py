"""qdriftlab benchmark: the four user-facing jobs driven through the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload run starts one fresh worker process (bench/worker.py) that
imports ``qdriftlab.cli`` and calls ``qdriftlab.cli.main(argv)`` for every
op.  This process is the single client of a closed loop: it generates the
next op's inputs, sends the op, waits for the reply and checks the output
outside the op's timing, then sends the next one.  Inputs are generated
from --seed (bench/inputs.py); outputs are checked by bench/checks.py.

With --trace 0 the run reports the end-to-end metrics; their times are the
worker's CPU seconds, and the wall-clock figures are printed beside them
without a gate (see bench/manifest.json).  With --trace 1 it
runs half the time untraced and half traced (bench/tracer.py) and reports
the per-layer metrics.  Human-readable lines go first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.  The exit
code is 0 when every op passed its check, 1 when one failed and 2 when the
package or the worker cannot start.  Run records and span dumps are
written under .bench_runs/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = Path(".bench_runs")
SETUP_LAUNCHES = 7
MIN_OPS = 3
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    """The worker could not start, died, or missed an op's time limit."""


# ---------------------------------------------------------------------------
# worker process


class Worker:
    """One worker process and its JSON-lines channel."""

    def __init__(self, root: Path, log_path: Path):
        env = {k: v for k, v in os.environ.items() if k != "QDRIFTLAB_OUTDIR"}
        env["PYTHONPATH"] = str(root / "src")
        env.update({k: BLAS_THREADS for k in BLAS_ENV})
        self._log = open(log_path, "ab")
        self._buf = b""
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            ready = self.recv(120.0)
        except WorkerError as exc:
            self.kill()
            log = log_path.read_text(errors="replace")[-2000:]
            raise WorkerError(f"worker did not start: {exc}\n{log}") from None
        self.setup_wall_s = perf_counter() - start
        self.setup_cpu_s = ready["setup_cpu_s"]
        self.import_s = ready["import_s"]

    def send(self, message: dict) -> None:
        try:
            self.proc.stdin.write((json.dumps(message) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerError("worker closed its input") from None

    def recv(self, timeout: float) -> dict:
        deadline = monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise WorkerError(f"no reply within {timeout:g} s")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise WorkerError(f"worker exited with code {self.proc.wait()}")
                self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def close(self, spans_path: Path | None = None) -> dict:
        try:
            self.send({"cmd": "exit", "spans": str(spans_path) if spans_path else None})
            final = self.recv(120.0)
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self._log.close()


# ---------------------------------------------------------------------------
# workloads


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Op:
    """One op: the argv list sent to the worker and the check of its outputs."""

    def __init__(self, argvs, input_sha256: str, outputs: list[Path], check):
        self.argvs = argvs
        self.input_sha256 = input_sha256
        self.outputs = outputs
        self.check = check  # (stdout, {path: bytes}) -> problems


class CompileWorkload:
    """`compile` on one seeded Hamiltonian, a fresh --seed per op (op 1 repeats op 0)."""

    eps = 1e-3
    timeout = 90.0

    def __init__(self, name: str, n_terms: int, n_qubits: int, n_gates: float):
        self.name, self.n_terms, self.n_qubits, self.n_gates = name, n_terms, n_qubits, n_gates

    def prepare(self, run_dir: Path, rng: np.random.Generator) -> None:
        coeffs, words = inputs.random_hamiltonian(rng, self.n_terms, self.n_qubits)
        lam = math.fsum(abs(c) for c in coeffs)
        self.t = inputs.time_for_gate_count(lam, self.eps, self.n_gates)
        text = inputs.hamtxt(coeffs, words).encode()
        self.ham = run_dir / "input.hamtxt"
        self.ham.write_bytes(text)
        self.ham_sha = sha256(text)
        self.out = run_dir / "out.circ"
        self.oracle = checks.CompileOracle(coeffs, words, self.t, self.eps)
        self.rng = rng
        self.first_seed = 0
        self.first_digest = ""

    def gates_per_op(self) -> int:
        return self.oracle.N

    def make_op(self, i: int) -> Op:
        seed = self.first_seed if i == 1 else int(self.rng.integers(0, 2**63))
        if i == 0:
            self.first_seed = seed
        argv = ["compile", "--ham", str(self.ham), "--t", repr(self.t), "--eps", repr(self.eps),
                "--seed", str(seed), "--out", str(self.out)]

        def check(stdout: str, files: dict[Path, bytes]) -> list[str]:
            data = files[self.out]
            problems = self.oracle.check(stdout, data, seed, str(self.out))
            digest = sha256(data)
            if i == 0:
                self.first_digest = digest
            elif i == 1 and digest != self.first_digest:
                problems.append("repeating op 0's seed gave different bytes")
            return problems

        return Op([argv], self.ham_sha, [self.out], check)


class CertifyWorkload:
    """`verify --ham` on a new 4-qubit Hamiltonian of 6-8 distinct terms per op."""

    name = "certify"
    n_qubits = 4
    t = 1.0
    timeout = 60.0

    def prepare(self, run_dir: Path, rng: np.random.Generator) -> None:
        self.rng = rng
        self.ham = run_dir / "op.hamtxt"
        self.out = run_dir / "rows.csv"

    def gates_per_op(self) -> int:
        return 0

    def make_op(self, i: int) -> Op:
        n_terms = int(self.rng.integers(6, 9))
        lam_target = float(self.rng.uniform(0.5, 2.0))
        coeffs, words = inputs.random_hamiltonian(self.rng, n_terms, self.n_qubits, lam_target)
        text = inputs.hamtxt(coeffs, words).encode()
        self.ham.write_bytes(text)
        argv = ["verify", "--ham", str(self.ham), "--t", repr(self.t), "--out", str(self.out)]

        def check(stdout: str, files: dict[Path, bytes]) -> list[str]:
            return checks.check_verify(stdout, files[self.out].decode(), coeffs, words, self.t, i == 0)

        return Op([argv], sha256(text), [self.out], check)


class PlanWorkload:
    """`sweep --crossover` then `phase-est` on a new seeded weight profile per op.

    Each block of `strata` consecutive ops takes its L values from every
    slice of the log range once, in a shuffled order.
    """

    name = "plan"
    eps = 1e-3
    t_range = (1e-3, 1e10)
    points = 50
    pf_range = (1e-3, 0.1)
    pf_points = 20
    strata = 10
    timeout = 60.0

    def prepare(self, run_dir: Path, rng: np.random.Generator) -> None:
        from qdriftlab import trotter  # public bound functions, the reference for minimal r

        self.trotter = trotter
        self.rng = rng
        self.sweep_out = run_dir / "sweep.csv"
        self.pe_out = run_dir / "pe.csv"
        self.grid = np.logspace(math.log10(self.t_range[0]), math.log10(self.t_range[1]), self.points)
        self.pf_grid = np.logspace(math.log10(self.pf_range[0]), math.log10(self.pf_range[1]), self.pf_points)

    def gates_per_op(self) -> int:
        return 0

    def make_op(self, i: int) -> Op:
        if i % self.strata == 0:
            self.order = self.rng.permutation(self.strata)
        L, lam_max, lam = inputs.plan_profile(self.rng, int(self.order[i % self.strata]), self.strata)
        profile = ["--L", str(L), "--Lambda", repr(lam_max), "--lambda", repr(lam)]
        sweep = ["sweep", *profile, "--t-min", repr(self.t_range[0]), "--t-max", repr(self.t_range[1]),
                 "--points", str(self.points), "--eps", repr(self.eps), "--crossover",
                 "--out", str(self.sweep_out)]
        pe = ["phase-est", *profile, "--delta-e", repr(1e-3 * lam), "--pf-min", repr(self.pf_range[0]),
              "--pf-max", repr(self.pf_range[1]), "--pf-points", str(self.pf_points),
              "--out", str(self.pe_out)]

        def check(stdout: str, files: dict[Path, bytes]) -> list[str]:
            return checks.check_sweep(
                files[self.sweep_out].decode(), self.trotter, L, lam_max, lam, self.eps,
                self.grid, self.t_range,
            ) + checks.check_phase_est(files[self.pe_out].decode(), self.pf_grid)

        return Op([sweep, pe], sha256(json.dumps([sweep, pe]).encode()), [self.sweep_out, self.pe_out], check)


WORKLOADS = {
    "compile-long": lambda: CompileWorkload("compile-long", 2000, 12, 4e5),
    "compile-wide": lambda: CompileWorkload("compile-wide", 30_000, 30, 3e4),
    "certify": CertifyWorkload,
    "plan": PlanWorkload,
}


# ---------------------------------------------------------------------------
# the closed loop


def run_loop(worker: Worker, workload, seconds: float, first_id: int, records: list) -> bool:
    """Run ops until `seconds` have passed (at least MIN_OPS).  False if the worker was lost."""
    deadline = perf_counter() + seconds
    done = 0
    while done < MIN_OPS or perf_counter() < deadline:
        i = first_id + done
        op = workload.make_op(i)
        for path in op.outputs:
            path.unlink(missing_ok=True)
        record = {"id": i, "input_sha256": op.input_sha256}
        records.append(record)
        worker.send({"cmd": "op", "id": i, "argvs": op.argvs})
        try:
            reply = worker.recv(workload.timeout)
        except WorkerError as exc:
            record.update(seconds=None, problems=[str(exc)])
            return False
        problems = []
        if reply["error"] or any(code != 0 for code in reply["codes"]):
            problems.append(f"exit codes {reply['codes']}, error {reply['error']}, stderr {reply['stderr'][-500:]!r}")
        files = {p: p.read_bytes() for p in op.outputs if p.exists()}
        if not problems:
            missing = [str(p) for p in op.outputs if p not in files]
            problems = [f"missing output {m}" for m in missing] or op.check(reply["stdout"], files)
        for path in op.outputs:
            path.unlink(missing_ok=True)
        record.update(
            seconds=reply["seconds"],
            cpu_seconds=reply["cpu_seconds"],
            out_bytes=len(reply["stdout"].encode()) + sum(len(b) for b in files.values()),
            problems=problems,
            counts=reply.get("counts", {}),
        )
        done += 1
    return True


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten values beyond it.

    With n values this is the (n-10)-th smallest; with 11 or fewer it is the
    smallest, the only rank that keeps as many values beyond it as exist.
    """
    ordered = sorted(values)
    rank = max(0, len(ordered) - 11)
    return {"value": ordered[rank], "percentile": 100.0 * rank / len(ordered),
            "ops": len(ordered), "beyond": len(ordered) - 1 - rank}


def layer_metrics(records: list, layers: dict, untraced_p50: float, import_s: float, missing: int):
    """Per-layer metrics: the median over traced ops of each quantity."""
    traced = [r for r in records if r.get("traced") and r["seconds"] is not None]
    per_op = []
    for r in traced:
        entry = layers.get(str(r["id"]), {"self": {}, "total": {}})
        self_s, counts = entry["self"], r["counts"]

        def span_self(*names):
            return sum(self_s.get(n, 0.0) for n in names)

        def layer_self(prefix):
            return sum(v for n, v in self_s.items() if n.startswith(prefix + "."))

        solves = counts.get("trotter.solves", 0)
        per_op.append({
            "cli.self_s": span_self("cli.main"),
            "cli.bytes_written": r["out_bytes"],
            "hamiltonian.parse_s": span_self("hamiltonian.parse"),
            "hamiltonian.canonical_s": span_self("hamiltonian.canonical"),
            "hamiltonian.constructions": counts.get("hamiltonian.constructions", 0),
            "hamiltonian.self_s": layer_self("hamiltonian"),
            "compiler.to_text_s": span_self("compiler.to_text"),
            "compiler.sample_s": span_self("compiler.sample"),
            "compiler.alias_build_s": span_self("compiler.alias_build"),
            "compiler.gate_count_s": span_self("compiler.gate_count"),
            "compiler.compile_s": entry["total"].get("compiler.compile", 0.0),
            "compiler.gates": counts.get("compiler.gates", 0),
            "compiler.self_s": layer_self("compiler"),
            "trotter.gate_count_s": span_self("trotter.gate_count"),
            "trotter.solve_r_s": span_self("trotter.solve_r"),
            "trotter.crossover_s": span_self("trotter.crossover"),
            "trotter.solves": solves,
            "trotter.bound_evals": counts.get("trotter.bound_evals", 0),
            "trotter.evals_per_solve": counts.get("trotter.bound_evals", 0) / solves if solves else 0.0,
            "trotter.self_s": layer_self("trotter"),
            "phase_estimation.build_plan_s": span_self("phase_estimation.build_plan"),
            "phase_estimation.optimize_pf_s": span_self("phase_estimation.optimize_pf"),
            "phase_estimation.plans": counts.get("phase_estimation.plans", 0),
            "phase_estimation.self_s": layer_self("phase_estimation"),
            "channels.segment_channel_s": span_self("channels.segment_channel"),
            "channels.qdrift_channel_s": span_self("channels.qdrift_channel"),
            "channels.choi_distance_s": span_self("channels.choi_distance"),
            "channels.validity_s": span_self("channels.validity"),
            "channels.composition_s": span_self("channels.composition"),
            "channels.unitary_exp_calls": counts.get("channels.unitary_exp_calls", 0),
            "channels.rows": counts.get("channels.rows", 0),
            "channels.superop_bytes": counts.get("channels.superop_bytes", 0),
            "channels.self_s": layer_self("channels"),
        })
    traced_p50 = statistics.median(r["seconds"] for r in traced)
    values = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    values.update({
        "cli.import_s": import_s,
        "traced.op_s.p50": traced_p50,
        "untraced.op_s.p50": untraced_p50,
        "trace.overhead": traced_p50 / untraced_p50,
        "trace.missing": missing,
    })
    total_op = sum(r["seconds"] for r in traced)
    shares = {
        layer: sum(op[key] for op in per_op) / total_op
        for layer, key in (
            ("cli", "cli.self_s"), ("hamiltonian", "hamiltonian.self_s"), ("compiler", "compiler.self_s"),
            ("trotter", "trotter.self_s"), ("phase_estimation", "phase_estimation.self_s"),
            ("channels", "channels.self_s"),
        )
    }
    shares["compiler.to_text"] = sum(op["compiler.to_text_s"] for op in per_op) / total_op
    shares["hamiltonian.parse+canonical"] = sum(
        op["hamiltonian.parse_s"] + op["hamiltonian.canonical_s"] for op in per_op) / total_op
    return values, shares


def environment() -> dict:
    head = Path(".git/HEAD")
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = Path(".git") / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: BLAS_THREADS for k in BLAS_ENV},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    root = Path.cwd()
    workload = WORKLOADS[name]()
    run_dir = RUNS_DIR / f"{name}-{os.getpid():08d}"
    records_dir = RUNS_DIR / "records"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    records_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(run_dir, inputs.workload_rng(name, seed))
        log = run_dir / "worker.log"
        setups: list[float] = []
        setup_walls: list[float] = []

        def measure_setup(launches: int) -> None:
            for _ in range(launches):
                extra = Worker(root, log)
                setups.append(extra.setup_cpu_s)
                setup_walls.append(extra.setup_wall_s)
                extra.close()

        # Set-up time follows the machine's speed, so the extra launches are
        # split between the start and the end of the run.
        extra_launches = 0 if trace else SETUP_LAUNCHES - 1
        measure_setup(extra_launches // 2)
        worker = Worker(root, log)
        setups.append(worker.setup_cpu_s)
        setup_walls.append(worker.setup_wall_s)
        records: list[dict] = []
        missing: list[str] = []
        alive = True
        try:
            if trace:
                alive = run_loop(worker, workload, seconds / 2, 0, records)
                if alive:
                    worker.send({"cmd": "trace"})
                    missing = worker.recv(60.0)["missing"]
                    first = len(records)
                    alive = run_loop(worker, workload, seconds / 2, first, records)
                    for r in records[first:]:
                        r["traced"] = True
            else:
                alive = run_loop(worker, workload, seconds, 0, records)
            final = worker.close(records_dir / f"{name}-seed{seed}.spans.json" if trace else None) if alive else {}
        finally:
            worker.kill()
        measure_setup(extra_launches - extra_launches // 2)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    timed = [r for r in records if r["seconds"] is not None]
    untraced = [r["seconds"] for r in timed if not r.get("traced")]
    result = {
        "workload": name, "seed": seed, "trace": trace, "attempted": attempted, "failed": failed,
        "environment": environment(), "setup_s_launches": setups,
        "setup_wall_s_launches": setup_walls,
        "inputs_sha256": sha256("".join(r["input_sha256"] for r in records).encode()),
        "ops": records,
    }
    if not timed:
        result["metrics"] = {}
    elif trace:
        if "layers" not in final:
            result["metrics"] = {}
        else:
            values, shares = layer_metrics(
                records, final["layers"], statistics.median(untraced), worker.import_s,
                len(missing))
            result.update(layer_values=values, shares=shares, missing=missing)
            result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        # The gated times are the worker's CPU seconds.  On a shared virtual
        # machine the wall clock also counts steal (the hypervisor running
        # other guests on this vCPU) and waits for the disk, which moved the
        # wall-clock median of compile-long by about 25% between runs of the
        # same code on a 2-vCPU VM.  The worker is single-threaded (BLAS
        # pinned to 1), so CPU seconds are its wall seconds without those.
        # The wall-clock figures are printed and recorded beside them.
        secs = [r["seconds"] for r in timed]
        cpu_secs = [r["cpu_seconds"] for r in timed]
        passed = sum(1 for r in timed if not r["problems"])
        op_tail = tail(cpu_secs)
        values = {
            "setup_s": statistics.median(setups),
            "op_cpu_s.p50": statistics.median(cpu_secs),
            "op_cpu_s.tail": op_tail["value"],
            "ops_per_cpu_s": passed / sum(cpu_secs),
            "peak_rss_mb": final.get("peak_rss_kb", 0) / 1024.0,
            "out_bytes": statistics.median(r["out_bytes"] for r in timed),
        }
        wall_tail = tail(secs)
        result.update(
            tail=op_tail,
            wall={
                "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
                "op_s.p50": {"value": statistics.median(secs), "unit": "s"},
                "op_s.tail": {"value": wall_tail["value"], "unit": "s"},
                "ops_per_s": {"value": passed / sum(secs), "unit": "1/s"},
                "gates_per_s": {"value": workload.gates_per_op() * len(secs) / sum(secs), "unit": "1/s"},
            },
            error_rate=failed / attempted,
        )
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    (records_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


# ---------------------------------------------------------------------------
# reporting


# Expected shares of op time at the commit the benchmark was defined on.
DESIGN = {
    "compile-long": (("compiler.to_text", ">=", 0.5), ("hamiltonian.parse+canonical", "<=", 0.15)),
    "compile-wide": (("compiler.to_text", "<=", 0.15), ("hamiltonian.parse+canonical", ">=", 0.5)),
    "certify": (("channels", ">=", 0.5),),
    "plan": (("trotter", ">=", 0.5),),
}


def report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"ops {result['attempted']} ({result['failed']} failed)  inputs sha256 {result['inputs_sha256'][:16]}")
    print(f"  python {env['python']}  numpy {env['numpy']}  {env['blas']}  BLAS threads {BLAS_THREADS}  "
          f"cpus {env['cpus_usable']}/{env['cpu_count']}  commit {env['commit'] or 'unknown'}")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "op_cpu_s.tail":
            t = result["tail"]
            note = f"  (p{t['percentile']:.0f} of {t['ops']} ops, {t['beyond']} beyond)"
        elif name == "setup_s":
            note = f"  (CPU, median of {len(result['setup_s_launches'])} launches)"
        print(f"  {name:<32} {metric['value']:<14.6g} {metric['unit']}{note}")
    if not result["trace"] and result["metrics"]:
        print(f"  {'error_rate':<32} {result['error_rate']:<14.6g} ratio  ({result['failed']}/{result['attempted']})")
        for name, metric in result["wall"].items():
            if metric["value"]:
                print(f"  {'wall.' + name:<32} {metric['value']:<14.6g} {metric['unit']}  (wall clock, not gated)")
    for key, sign, limit in DESIGN[result["workload"]] if "shares" in result else ():
        share = result["shares"][key]
        holds = share >= limit if sign == ">=" else share <= limit
        print(f"  share {key:<26} {share:<14.3f} expected {sign} {limit}: {'yes' if holds else 'NO'}")
    if result.get("missing"):
        print(f"  probes missing: {', '.join(result['missing'])}")
    for r in result["ops"]:
        for problem in r["problems"]:
            print(f"  FAILED op {r['id']}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/qdriftlab/cli.py").is_file():
        print("error: run from the root of a qdriftlab checkout (src/qdriftlab/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in names]
    except WorkerError as exc:
        print(f"error: worker failed to start or stop: {exc}", file=sys.stderr)
        return 2
    for result in results:
        report(result)
    correct = all(r["failed"] == 0 and r["metrics"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

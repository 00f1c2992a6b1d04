"""Span and counter tracing of qdriftlab, applied from outside the package.

Each probe names a public function or method of one of the package's
modules.  `Tracer.install` replaces every binding of that object across the
loaded ``qdriftlab`` modules (found by identity, so a function imported
into a second module is wrapped there too) and `Tracer.uninstall` puts the
originals back.  A probe whose name no longer exists is recorded in
`missing` and skipped.

Spans are kept in memory as (name, start, end, parent, op id) tuples and
summarised per op at the end: a span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _one(_result) -> int:
    return 1


def _length(result) -> int:
    return len(result)


def _superop_bytes(result) -> int:
    # Computed, not measured: a d^2 x d^2 complex128 superoperator is 16 d^4 bytes.
    return 16 * result.shape[0] * result.shape[1]


# (module, attribute, span name or None, counter name or None, counter increment)
PROBES = (
    ("cli", "main", "cli.main", None, None),
    ("hamiltonian", "parse_hamiltonian", "hamiltonian.parse", None, None),
    ("hamiltonian", "Hamiltonian.canonical", "hamiltonian.canonical", None, None),
    ("hamiltonian", "Hamiltonian.__init__", None, "hamiltonian.constructions", _one),
    ("compiler", "compile_circuit", "compiler.compile", "compiler.gates", _length),
    ("compiler", "Circuit.to_text", "compiler.to_text", None, None),
    ("compiler", "AliasSampler.__init__", "compiler.alias_build", None, None),
    ("compiler", "AliasSampler.sample_many", "compiler.sample", None, None),
    ("compiler", "gate_count_exact", "compiler.gate_count", None, None),
    ("trotter", "gate_count", "trotter.gate_count", None, None),
    ("trotter", "solve_r", "trotter.solve_r", "trotter.solves", _one),
    ("trotter", "crossover_time", "trotter.crossover", None, None),
    ("trotter", "trotter_error_det", None, "trotter.bound_evals", _one),
    ("trotter", "trotter_error_random", None, "trotter.bound_evals", _one),
    ("trotter", "suzuki_error", None, "trotter.bound_evals", _one),
    ("phase_estimation", "build_plan", "phase_estimation.build_plan", "phase_estimation.plans", _one),
    ("phase_estimation", "optimize_pf", "phase_estimation.optimize_pf", None, None),
    ("channels", "verify_bound", "channels.verify_bound", "channels.rows", _length),
    ("channels", "segment_channel", "channels.segment_channel", None, None),
    ("channels", "qdrift_channel", "channels.qdrift_channel", "channels.superop_bytes", _superop_bytes),
    ("channels", "unitary_channel", None, "channels.superop_bytes", _superop_bytes),
    ("channels", "unitary_exp", None, "channels.unitary_exp_calls", _one),
    ("channels", "choi_distance", "channels.choi_distance", None, None),
    ("channels", "is_trace_preserving", "channels.validity", None, None),
    ("channels", "choi_min_eigenvalue", "channels.validity", None, None),
    ("channels", "composition_check", "channels.composition", None, None),
)

PACKAGE = "qdriftlab"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span, counter, increment):
        spans, stack, counts = self.spans, self._stack, self.counts

        if span is None:

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[counter] += increment(result)
                return result

        else:

            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (span, start, end, parent, self.op_id)
                if counter is not None:
                    counts[counter] += increment(result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr, span, counter, increment in PROBES:
            label = f"{module_name}.{attr}"
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            parts = attr.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except AttributeError:
                self.missing.append(label)
                continue
            wrapper = self._wrap(original, span, counter, increment)
            if len(parts) > 1:
                # A method: every binding goes through the class.
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def take_counts(self) -> dict[str, int]:
        out = dict(self.counts)
        self.counts.clear()
        return out

    def summarize(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per op: self seconds and inclusive seconds per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = {}
        for i, (name, start, end, parent, op) in enumerate(spans):
            entry = out.setdefault(op, {"self": defaultdict(float), "total": defaultdict(float)})
            duration = end - start
            entry["self"][name] += duration - child[i]
            if parent < 0 or spans[parent][0] != name:
                entry["total"][name] += duration
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p, op] for n, s, e, p, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "names": names, "spans": rows}, fh)

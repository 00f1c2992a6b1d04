"""The package's public names, listed once so that adding or removing one is a visible change,
and the imports that keep its modules and dependencies in their places."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qdriftlab
from qdriftlab import channels, cli, compiler, hamiltonian, phase_estimation, trotter, weights

SRC = Path(qdriftlab.__file__).parent
TESTS = Path(__file__).parent

PUBLIC_NAMES = [
    "AliasSampler",
    "Circuit",
    "CircuitMeta",
    "CostQuery",
    "CostReport",
    "Hamiltonian",
    "HamiltonianError",
    "HamiltonianParseError",
    "Method",
    "WeightProfile",
    "best_method",
    "compile_circuit",
    "crossover_time",
    "elementary_gate_estimate",
    "gate_count",
    "gate_count_approx",
    "gate_count_exact",
    "parse_hamiltonian",
    "rng_from_seed",
    "segment_error_bound",
    "solve_r",
    "suzuki_error",
    "total_error_bound",
    "trotter_error_det",
    "trotter_error_random",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 25
    assert sorted(qdriftlab.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    # compiler and hamiltonian names resolve lazily; each is the object its
    # module defines, and hamiltonian re-exports the numpy-free names.
    homes = {compiler, hamiltonian, trotter, weights}
    for name in PUBLIC_NAMES:
        value = getattr(qdriftlab, name)
        home = sys.modules[value.__module__]
        assert home in homes and getattr(home, name) is value, name
    for name in ("HamiltonianError", "HamiltonianParseError", "WeightProfile"):
        assert getattr(hamiltonian, name) is getattr(qdriftlab, name) is getattr(weights, name)
    assert issubclass(hamiltonian.HamiltonianParseError, hamiltonian.HamiltonianError)


@pytest.mark.parametrize(
    "owner, name",
    [
        (compiler, "GateOp"),
        (compiler, "sample_term"),
        (compiler.Circuit, "gates"),
        (trotter, "qdrift_gates"),
        (trotter, "cost_csv_row"),
        (hamiltonian, "ControlledTerm"),
        (hamiltonian, "ControlledExtension"),
        (hamiltonian.Hamiltonian, "controlled_extension"),
        # A Hamiltonian is its columns: words, coefficients and weights.
        (hamiltonian, "Term"),
        (hamiltonian, "PauliString"),
        (hamiltonian.Hamiltonian, "terms"),
        (hamiltonian.Hamiltonian, "from_terms"),
        (hamiltonian.Hamiltonian, "__iter__"),
        # The dense superoperator path lives in tests/oracles.py.
        (channels, "qdrift_channel"),
        (channels, "segment_channel"),
        (channels, "unitary_channel"),
        (channels, "identity_channel"),
        (channels, "choi_state"),
        (channels, "choi_distance"),
        (channels, "is_trace_preserving"),
        (channels, "choi_min_eigenvalue"),
        (channels, "empirical_channel"),
        (channels, "circuit_unitary"),
        # verify calls the public checks; the private reuse path is gone.
        (channels, "_Step"),
        (channels, "_bound_rows"),
        (channels, "_composition_trials"),
        (channels, "_trace_preservation_error"),
        (channels, "_choi_min_eigenvalue"),
        (channels._KrausData, "step"),
        (channels._KrausData, "segment_targets"),
        # compile_circuit(..., controlled=True) is the one controlled compile.
        (compiler, "compile_controlled"),
        # optimize_pf solves the failure-share split in closed form; the
        # golden-section search is the oracle in tests/oracles.py.
        (phase_estimation, "_golden_section"),
        # One model formula gives every total; plan.total is the per-bit sum.
        (phase_estimation, "pipeline_total"),
        (phase_estimation.build_plan("qdrift", phase_estimation.PEQuery(1.0, 1e-4, 0.05)), "geometric"),
        (phase_estimation, "_smooth_depth"),
        # The qDRIFT count starts from its leading term, as every product
        # formula does, and trotter.gate_counts is the one costing loop.
        (compiler, "_log_total_root"),
        (trotter, "_log_total_root"),
        (trotter, "_gates_or_inf"),
        (trotter, "_qdrift_exceeds"),
        (cli, "_cost_reports"),
        (cli, "_method_sequence"),
        # trotter.gate_count is the one path from a product-formula bound to a count.
        (phase_estimation, "trotter_bit_cost_exact"),
        (phase_estimation.build_plan("qdrift", phase_estimation.PEQuery(1.0, 1e-4, 0.05)), "P_f"),
        # Test-only helpers live in tests/oracles.py.
        (phase_estimation, "repetition_filter"),
        (phase_estimation, "FilterVerdict"),
        (trotter, "closed_form_suzuki_count"),
        # One builder, _product_bound, gives every product-formula bound; the
        # two it replaced are the oracle in tests/oracles.py.
        (trotter, "_first_order_bound"),
        (trotter, "_suzuki_bound"),
        (trotter, "_combine_random"),
        # verify certifies its input only; the Suzuki constants it used to
        # self-test each run are checked in the tests, from tests/oracles.py.
        (trotter, "suzuki_prefactor"),
        (trotter, "suzuki_b_constant"),
        (trotter, "PRINTED_NK_CONSTANTS"),
        # trotter._count is the one place a count is made; solve_r calls the search itself.
        (trotter, "_solve"),
        # verify keeps plain lists of lines and failed checks' rigour.
        (cli, "_Report"),
        # composition_check applies every step in Pauli coordinates.
        (channels, "_xor_steps"),
        (channels, "_mixing_blocks"),
        # Planning imports no numpy: the grids come from trotter.log_grid.
        (cli, "np"),
        (trotter, "np"),
    ],
)
def test_removed_names_stay_removed(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(qdriftlab, name)


def _bound_paths(nodes) -> list[str]:
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module if node.level == 0 else ".".join(filter(None, ("qdriftlab", node.module)))
            found.extend(f"{base}.{alias.name}" for alias in node.names)
    return found


def imported_paths(path: Path) -> list[str]:
    """The dotted path of what each import in ``path`` binds, relative to qdriftlab."""
    return _bound_paths(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def module_level_paths(path: Path) -> list[str]:
    """``imported_paths`` of the imports that run when ``path`` is imported: none
    inside a function or an ``if TYPE_CHECKING:`` block."""
    nodes, stack = [], list(ast.parse(path.read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            continue
        nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return _bound_paths(nodes)


def test_counts_and_bounds_live_in_trotter():
    # No module reaches into another's private names; the one shared private
    # name is the input validator that lives beside the counts.
    shared_private = {"qdriftlab.trotter._check_positive"}
    for path in SRC.glob("*.py"):
        for target in imported_paths(path):
            if target == "qdriftlab.compiler" or target.startswith("qdriftlab.compiler."):
                assert path.stem not in ("trotter", "phase_estimation"), (path.name, target)
            if target.startswith("qdriftlab.") and target not in shared_private:
                assert not target.rsplit(".", 1)[1].startswith("_"), (path.name, target)
    # compiler.py imports the two counts; it defines no bound, count or search.
    tree = ast.parse((SRC / "compiler.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets}
    moved = (
        "_smallest_within", "_locate", "_MARGIN", "_MAX_LOG_STEP", "_SECANT_STEPS",
        "segment_error_bound", "total_error_bound", "_log_total_bound", "gate_count_approx",
        "gate_count_exact", "_N_LIMIT", "_check_positive", "_exp_or_inf", "_LOG_2",
    )
    for name in moved:
        assert name not in defined and hasattr(trotter, name), name


def test_planning_modules_bind_no_numpy_module_at_import():
    # cost, sweep and phase-est on a profile given as numbers load only these
    # modules; numpy and the modules built on it load where they are used.
    numpy_backed = ("numpy", "qdriftlab.channels", "qdriftlab.compiler", "qdriftlab.hamiltonian")
    for stem in ("__init__", "cli", "trotter", "phase_estimation", "weights"):
        for target in module_level_paths(SRC / f"{stem}.py"):
            assert not any(target == m or target.startswith(f"{m}.") for m in numpy_backed), (stem, target)
    assert "numpy" in module_level_paths(SRC / "hamiltonian.py")  # the scan sees module-level imports


def test_no_src_module_imports_dataclasses():
    # Records derive from weights.Record: dataclasses would load inspect at start-up.
    for path in SRC.glob("*.py"):
        assert not any(target.split(".")[0] == "dataclasses" for target in imported_paths(path)), path.name


def test_planning_runs_import_no_numpy(tmp_path):
    # The same boundary at run time, in a fresh interpreter: every planning
    # subcommand on a profile given as numbers, then one that reads a file.
    # modules.json lists which of the other modules each planning step
    # loaded; the script imports json only after the runs.
    script = textwrap.dedent(
        """
        import contextlib, io, os, sys
        import qdriftlab, qdriftlab.cli

        def loaded():
            watched = ("dataclasses", "inspect", "json", "qdriftlab.phase_estimation")
            return [name for name in watched if name in sys.modules]

        work = sys.argv[1]
        profile = ["--L", "200", "--Lambda", "0.5", "--lambda", "20.0"]
        runs = [
            ["cost", *profile, "--t", "3.0", "--eps", "1e-3"],
            ["sweep", *profile, "--t-min", "1e-2", "--t-max", "1e4", "--points", "7", "--eps", "1e-3",
             "--crossover"],
            ["phase-est", "--lambda", "20.0", "--Lambda", "0.5", "--L", "200", "--delta-e", "1e-2",
             "--pf-min", "1e-3", "--pf-max", "0.1", "--pf-points", "4"],
            ["phase-est", "--lambda", "20.0", "--delta-e", "1e-2", "--pf", "0.05"],
        ]
        seen = [("import", "numpy" in sys.modules)]
        modules = [loaded()]
        for i, argv in enumerate(runs):
            code = qdriftlab.cli.main([*argv, "--out", os.path.join(work, f"{i}.csv")])
            seen.append((argv[0], code, "numpy" in sys.modules))
            modules.append(loaded())
        ham = os.path.join(work, "h.txt")
        with open(ham, "w") as fh:
            fh.write("0.5 ZZ\\n0.25 XI\\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = qdriftlab.cli.main(["cost", "--ham", ham, "--t", "1.0", "--eps", "1e-3"])
        seen.append(("cost --ham", code, "numpy" in sys.modules))
        import json
        with open(os.path.join(work, "modules.json"), "w") as fh:
            json.dump(modules, fh)
        print(json.dumps(seen))
        """
    )
    src = str(SRC.resolve().parent)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        ["import", False], ["cost", 0, False], ["sweep", 0, False], ["phase-est", 0, False],
        ["phase-est", 0, False], ["cost --ham", 0, True],
    ]
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == ["0.csv", "1.csv", "2.csv", "3.csv"]
    # Start-up loads no dataclasses, inspect, json or phase_estimation; cost
    # and sweep keep it so, and phase-est adds only phase_estimation.
    pe = ["qdriftlab.phase_estimation"]
    assert json.loads((tmp_path / "modules.json").read_text()) == [[], [], [], pe, pe]


def test_segment_solver_is_assembled_only_in_trotter():
    # Other modules ask trotter.gate_count for a count; none builds the solve
    # from its parts, and phase_estimation needs no Hamiltonian type.
    for path in SRC.glob("*.py"):
        if path.stem == "trotter":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name not in ("solve_r", "_solve", "error_function"), (path.name, node.lineno)
    imported = [path for path in imported_paths(SRC / "phase_estimation.py") if path.startswith("qdriftlab")]
    assert imported == ["qdriftlab.trotter._check_positive", "qdriftlab.weights.Record"]


def test_no_unused_imports_or_private_names():
    # An import that a module does not use, or a private helper that nothing
    # in src/ calls, is code left behind by a deletion.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    for path, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        assert bound in used, (path.name, bound)
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {
            target.id
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        for name in defined:
            if name.startswith("_") and not name.startswith("__"):
                assert name in referenced, (path.name, name)


def test_dependencies_are_declared():
    # pyproject.toml declares numpy, and pytest and hypothesis for the tests;
    # nothing may lean on other packages that happen to be installed.
    def top_level(directory: Path) -> set[str]:
        return {target.split(".")[0] for path in directory.glob("*.py") for target in imported_paths(path)}

    allowed = set(sys.stdlib_module_names) | {"numpy", "qdriftlab"}
    assert top_level(SRC) <= allowed
    assert top_level(TESTS) <= allowed | {"pytest", "hypothesis", "oracles", "conftest"}


# numpy names that the declared floor, numpy 1.24, does not have: added in
# 1.25 (dtypes, exceptions) or in 2.x.  A dotted name is an attribute of a
# numpy submodule.
NUMPY_AFTER_FLOOR = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat", "cumulative_prod",
    "cumulative_sum", "dtypes", "exceptions", "isdtype", "matrix_transpose", "matvec",
    "permute_dims", "pow", "strings", "trapezoid", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "unstack", "vecdot", "vecmat",
    "linalg.cross", "linalg.diagonal", "linalg.matmul", "linalg.matrix_norm",
    "linalg.matrix_transpose", "linalg.outer", "linalg.svdvals", "linalg.tensordot",
    "linalg.trace", "linalg.vecdot", "linalg.vector_norm",
}


def numpy_names(source: str) -> set[str]:
    """The numpy attributes ``source`` reads, dotted below ``numpy``: ``np.linalg.norm`` gives
    ``linalg`` and ``linalg.norm``."""
    tree = ast.parse(source)
    aliases = {"numpy"}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            base = node.module.split(".", 1)[1:]
            found.update(".".join([*base, a.name]) for a in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases and chain:
            chain.reverse()
            found.update(".".join(chain[: k + 1]) for k in range(len(chain)))
    return found


def test_the_scan_finds_numpy_names_past_the_floor():
    snippet = (
        "import numpy as np\nfrom numpy.linalg import vector_norm\n"
        "def f(x):\n    return np.bitwise_count(x) + np.strings.upper(x) + np.linalg.vecdot(x, x)\n"
    )
    assert numpy_names(snippet) & NUMPY_AFTER_FLOOR == {
        "bitwise_count", "strings", "linalg.vecdot", "linalg.vector_norm"
    }


def test_src_uses_no_numpy_name_past_the_declared_floor():
    # pyproject.toml declares numpy>=1.24, and the tests run on a newer numpy.
    assert "numpy>=1.24" in (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    for path in SRC.glob("*.py"):
        used = numpy_names(path.read_text(encoding="utf-8")) & NUMPY_AFTER_FLOOR
        assert not used, (path.name, sorted(used))

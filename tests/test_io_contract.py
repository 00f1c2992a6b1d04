"""The CLI's I/O contract: every run ends in a documented exit code, and all
stdout goes through the one guarded writer, ``cli._write_text``.

Exit codes are 0, 2 (parse error), 3 (invalid argument or unwritable
output) and 4 (verification bound violation).  A stdout that cannot be
written is an unwritable output: one ``error: cannot write stdout: ...``
line on stderr and exit 3, never a traceback.
"""

import ast
import errno
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qdriftlab
from qdriftlab import cli
from qdriftlab.cli import EXIT_BOUND, EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, main

HAM_TEXT = "1.0 ZZ\n0.5 XI\n-0.25 IY\n"
# Its qDRIFT plan fits just below the float ceiling, though the continuous-
# depth total at the same failure share does not; this run exited 3.
CEILING_PLAN = (
    "phase-est --lambda 1.0 --delta-e 9.97957073039286e-153 --pf 0.21295128612232445 --L 2192"
    " --Lambda 4.105338743489765e-195"
).split()
SRC = str(Path(qdriftlab.__file__).resolve().parent.parent)

# One small run per subcommand; {ham} and {out} are filled in per test.
SUBCOMMANDS = {
    "compile": "compile --ham {ham} --t 1 --eps 1e-2 --seed 7 --out {out}",
    "truncate": "truncate --ham {ham} --eps 0.1 --out {out}",
    "cost": "cost --ham {ham} --t 1 --eps 1e-3",
    "sweep": "sweep --L 10 --Lambda 1 --lambda 5 --t-min 1 --t-max 100 --points 3 --eps 1e-3 --crossover",
    "phase-est": "phase-est --lambda 1 --Lambda 1 --L 100 --delta-e 1e-4 --pf 0.05",
    "verify": "verify --ham {ham}",
}


@pytest.fixture
def ham_file(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text(HAM_TEXT)
    return path


def cli_process(argv, unbuffered=False, **kwargs) -> subprocess.Popen:
    # PYTHONUNBUFFERED is dropped unless asked for, so stdout is
    # block-buffered, as in a shell: a failed stdout then still holds its
    # bytes at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = SRC
    return subprocess.Popen([sys.executable, "-m", "qdriftlab.cli", *argv], env=env, **kwargs)


# ---------------------------------------------------------------------------
# one output path


def test_stdout_is_written_only_by_the_guarded_writer():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (writer,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_write_text"]

    def stdout_uses(root):
        return {
            id(node) for node in ast.walk(root)
            if isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__")
        }

    assert stdout_uses(writer) and stdout_uses(tree) == stdout_uses(writer)
    prints = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert prints
    for call in prints:
        (target,) = [kw.value for kw in call.keywords if kw.arg == "file"]
        assert ast.unparse(target) == "sys.stderr", ast.unparse(call)


class BareStream:
    """A stdout with only write, writelines and flush: no buffer, no fileno."""

    def __init__(self, fail: bool = False):
        self.fail = fail
        self.pieces = []

    def write(self, text):
        if self.fail:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.pieces.append(text)
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)

    def flush(self):
        if self.fail:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("command", SUBCOMMANDS.values(), ids=SUBCOMMANDS.keys())
def test_a_bare_stdout_gets_the_same_bytes(command, ham_file, tmp_path, monkeypatch, capsys):
    argv = command.format(ham=ham_file, out=tmp_path / "out").split()
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out
    stream = BareStream()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(argv) == EXIT_OK
    assert "".join(stream.pieces) == expected


@pytest.mark.parametrize("command", SUBCOMMANDS.values(), ids=SUBCOMMANDS.keys())
def test_a_failing_stdout_is_an_unwritable_output(command, ham_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", BareStream(fail=True))
    assert main(command.format(ham=ham_file, out=tmp_path / "out").split()) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    # Dropped, so the interpreter's exit flush has nothing to report again.
    assert sys.stdout is None


def test_verify_writes_its_checks_before_the_out_file_and_the_verdict(ham_file, tmp_path, capsys):
    assert main(["verify", "--ham", str(ham_file)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "VERIFY: PASS"
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["verify", "--ham", str(ham_file), "--out", str(blocker / "x")]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines[:-1]
    assert captured.err.startswith(f"error: cannot write {blocker / 'x'}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", SUBCOMMANDS.values(), ids=SUBCOMMANDS.keys())
def test_stdout_on_dev_full_exits_3_with_one_line(command, ham_file, tmp_path):
    argv = command.format(ham=ham_file, out=tmp_path / "out").split()
    with open("/dev/full", "w") as full:
        process = cli_process(argv, stdout=full, stderr=subprocess.PIPE, text=True)
        _, err = process.communicate(timeout=120)
    assert (process.returncode, err) == (EXIT_DOMAIN, "error: cannot write stdout: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["help", "verify-help"])
def test_help_on_dev_full_exits_3_with_one_line(argv, unbuffered):
    # argparse swallows the OSError of its own write: buffered, the exit
    # flush then reported it and exited 120; unbuffered, the run exited 0
    # having written nothing.
    with open("/dev/full", "w") as full:
        process = cli_process(argv, unbuffered, stdout=full, stderr=subprocess.PIPE, text=True)
        _, err = process.communicate(timeout=120)
    assert (process.returncode, err) == (EXIT_DOMAIN, "error: cannot write stdout: No space left on device\n")


@pytest.mark.parametrize("argv", [[], ["verify"]], ids=["help", "verify-help"])
def test_help_is_the_parsers_format_help(argv, capsys):
    parser = cli._parser()
    if argv:
        parser = parser._subparsers._group_actions[0].choices[argv[0]]
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr() == (parser.format_help(), "")


@pytest.mark.skipif(shutil.which("head") is None, reason="needs head")
def test_sweep_into_head_exits_0_with_empty_stderr():
    # The whole table is one write into the pipe, made before head reads
    # its first line and closes it.
    sweep = cli_process(SUBCOMMANDS["sweep"].split(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = subprocess.Popen(["head", "-1"], stdin=sweep.stdout, stdout=subprocess.PIPE)
    sweep.stdout.close()
    first, _ = head.communicate(timeout=120)
    err = sweep.stderr.read()
    sweep.stderr.close()
    assert sweep.wait(timeout=120) == EXIT_OK
    assert err == b""
    assert first.startswith(b"method,order,variant,")


# ---------------------------------------------------------------------------
# every argv ends in a documented exit code

# Half the examples draw every value from its usual range, so most of them
# succeed; the other half may swap any value for an edge one.
EDGE_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
)
EDGE_COUNTS = st.one_of(st.integers(-2, 0), st.integers(2**62, 2**70))
FORMATS = st.sampled_from([[], ["--format=csv"], ["--format=json"]])


@st.composite
def hamiltonian_texts(draw):
    n = draw(st.integers(1, 2))
    words = st.text("IXYZ", min_size=n, max_size=n).filter(lambda word: word != "I" * n)
    terms = draw(st.lists(st.tuples(st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 0.05), words),
                          min_size=1, max_size=4))
    return "".join(f"{c!r} {word}\n" for c, word in terms)


# lam is at most 4 or at least about 1e200, so a compile below needs either
# few gates or more than the 2**31 it will materialize.
EDGE_COEFFICIENTS = st.one_of(
    st.floats(-1.0, 1.0), st.sampled_from([5e-324, 1e-300, 1e200, -1e250, 1e308, math.inf, math.nan])
)
EDGE_LINES = st.one_of(
    st.tuples(EDGE_COEFFICIENTS.map(repr), st.sampled_from(["X", "I", "ZZ", "XI", "II"])).map(" ".join),
    st.sampled_from(["# comment", "", "x.y ZZ", "1.0 Q", "0.5"]),
)
HAM_TEXTS = st.one_of(
    hamiltonian_texts(),
    st.lists(EDGE_LINES, max_size=4).map(lambda lines: "".join(line + "\n" for line in lines)),
)


def options(**values):
    """``--name=value`` pieces, so argparse takes a value such as -inf as a value."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


@st.composite
def argvs(draw):
    edge = draw(st.booleans())

    def usual_or_edge(usual, edges):
        value = draw(usual)
        return draw(st.one_of(st.just(value), edges)) if edge else value

    def number(low, high):
        return repr(usual_or_edge(st.floats(low, high), EDGE_NUMBERS))

    def count(low, high):
        return str(usual_or_edge(st.integers(low, high), EDGE_COUNTS))

    def profile():
        if draw(st.booleans()):
            return ["--ham={ham}"] + draw(st.sampled_from([[], ["--no-fairness"]]))
        L = draw(st.integers(1, 10**6))
        lam_max = draw(st.floats(1e-3, 10.0))
        lam = lam_max * draw(st.floats(1.0, L))
        return options(
            L=usual_or_edge(st.just(L), EDGE_COUNTS),
            Lambda=repr(usual_or_edge(st.just(lam_max), EDGE_NUMBERS)),
            **{"lambda": repr(usual_or_edge(st.just(lam), EDGE_NUMBERS))},
        )

    command = draw(st.sampled_from(["cost", "sweep", "phase-est", "verify", "truncate", "compile"]))
    if command == "cost":
        return ["cost", *profile(), *options(t=number(1e-3, 1e3), eps=number(1e-6, 0.5)), *draw(FORMATS)]
    if command == "sweep":
        ends = options(t_min=number(1e-3, 1.0), t_max=number(2.0, 1e4), eps=number(1e-6, 0.5))
        points = options(points=draw(st.integers(-1, 5) if edge else st.integers(2, 5)))
        flags = draw(st.sampled_from([[], ["--crossover"]]))
        return ["sweep", *profile(), *ends, *points, *flags, *draw(FORMATS)]
    if command == "phase-est":
        lam = draw(st.floats(0.1, 100.0))
        argv = ["phase-est", *options(**{"lambda": repr(usual_or_edge(st.just(lam), EDGE_NUMBERS))})]
        argv += options(delta_e=number(lam * 1e-8, lam))
        argv += draw(st.sampled_from([[], options(Lambda=number(1e-3, lam))]))
        argv += draw(st.sampled_from([[], options(L=count(1, 10**4))]))
        if draw(st.booleans()):
            argv += options(pf=number(1e-4, 0.9))
        else:
            argv += options(pf_min=number(1e-4, 0.1), pf_max=number(0.2, 0.9), pf_points=count(1, 5))
        return argv + draw(FORMATS)
    if command == "verify":
        argv = ["verify", "--ham={ham}", *options(t=number(1e-2, 2.0), seed=count(0, 2**64 - 1))]
        argv += options(tol=repr(usual_or_edge(st.just(1e-10), EDGE_NUMBERS)))
        flags = st.sampled_from(["--negative-control", "--strict", "--out=rows.csv"])
        return argv + draw(st.lists(flags, unique=True))
    if command == "truncate":
        return ["truncate", "--ham={ham}", *options(eps=number(1e-4, 0.5)), "--out=truncated.txt"]
    # N is about 2 (lam t)^2 / eps: below 3e4 where lam <= 4, and above 2**31
    # (an exit 3 before any gate is drawn) where lam is about 1e200 or more.
    t, eps = st.floats(1e-3, 3.0), st.floats(1e-2, 10.0)
    if edge:
        t = st.one_of(t, st.sampled_from([0.0, -1.0, 1e-300, math.inf, math.nan]))
        eps = st.one_of(eps, st.sampled_from([0.0, -1.0, math.inf, math.nan]))
    argv = ["compile", "--ham={ham}", *options(t=repr(draw(t)), eps=repr(draw(eps)), seed=count(0, 2**64 - 1))]
    argv += options(mode=draw(st.sampled_from(["exact", "approx"])))
    return argv + draw(st.sampled_from([[], ["--controlled"]])) + ["--out=c.circ"]


def table_cells(text: str, fmt: str):
    if fmt == "json":
        return [cell for row in json.loads(text) for cell in row.values()]
    return [cell for line in text.splitlines() for cell in line.split(",")]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs(), ham_text=HAM_TEXTS)
@example(argv=CEILING_PLAN, ham_text=HAM_TEXT)
def test_every_argv_ends_in_a_documented_exit_code(argv, ham_text, tmp_path):
    ham = tmp_path / "h.txt"
    ham.write_text(ham_text)
    argv = [arg.format(ham=ham) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {cli.OUTDIR_ENV: str(tmp_path)}), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_BOUND), argv
    assert code == EXIT_OK or argv != CEILING_PLAN
    if code in (EXIT_PARSE, EXIT_DOMAIN):
        prefix = "parse error: " if code == EXIT_PARSE else "error: "
        assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1, (argv, err.getvalue())
        return
    assert err.getvalue() == "", argv
    if argv[0] == "verify":
        verdict = "VERIFY: PASS" if code == EXIT_OK else "VERIFY: FAIL"
        assert out.getvalue().splitlines()[-1] == verdict
    elif argv[0] in ("cost", "sweep", "phase-est"):
        assert code == EXIT_OK
        fmt = "json" if "--format=json" in argv else "csv"
        cells = table_cells(out.getvalue(), fmt)
        assert cells and not any("nan" in cell for cell in cells), argv

"""The CLI's file read path against the loader it replaced.

``cli._load_hamiltonian`` reads a file as bytes, parses an ASCII file as
bytes and decodes any other as UTF-8 first.  ``oracles.reference_load_hamiltonian``
is the loader before that change: ``read_text(encoding="utf-8")``, whose
universal newlines turn ``\\r\\n`` and a lone ``\\r`` into ``\\n``, then
``parse_hamiltonian``.  Each file must give the same Hamiltonian, or the
same error message and line number, and the same exit code and stderr
through ``cli.main``.
"""

from unittest import mock

import pytest

from oracles import reference_load_hamiltonian, scrambled_hamiltonian, wide_hamtxt
from qdriftlab import cli, hamiltonian
from qdriftlab.cli import EXIT_OK, EXIT_PARSE, main
from qdriftlab.hamiltonian import HamiltonianParseError, parse_hamiltonian

FILES = {
    "crlf": b"# header\r\n1.0 ZZ\r\n-0.5 XI\r\n\r\n0.25 IY\r\n",
    "lone-cr": b"1.0 ZZ\r-0.5 XI\r\r0.25 IY",
    "mixed-line-ends": b"1.0 ZZ\r\n-0.5 XI\r0.25 IY\n\r\n0.125 YY\r\r\n-2.0 XX",
    "cr-ends-a-comment": b"1.0 XX #\r0.5 ZZ\r\n# c\r-1.0 IY #\r\n",
    "bad-line-after-cr": b"1.0 ZZ\r0.5 XI\r\n\r0.5 QQ\r\n",
    "cr-inside-a-line": b"1.0\rZZ\n",
    "bom": b"\xef\xbb\xbf1.0 ZZ\n0.5 XI\n",
    "bom-before-a-comment": b"\xef\xbb\xbf# c\n1.0 ZZ\n",
    "not-utf8-first-byte": b"\xff1.0 ZZ\n",
    "not-utf8-later": b"1.0 ZZ\n0.5 XI\n# \xc3\x28\n",
    "not-utf8-truncated": b"1.0 ZZ\n\xe2\x82",
    "comment-with-control-bytes": b"1.0 ZZ # a\x01b\x1fc\x7f\n0.5 XI #\x0b\x0c\n-1.0 IY",
    "control-byte-in-a-line": b"1.0 ZZ\n0.5\x1cXI\n",
    "tabs": b"\t1.0\tZZ\t\n-0.5 \t XI\n\t\t\n0.25\tIY # t\tab\n",
    "arabic-indic-digits": "١٢ ZZ\n0.5 XI\n".encode("utf-8"),
    "arabic-indic-digits-crlf": "0.5 XI\r\n-٣.5 ZZ\r\n".encode("utf-8"),
    "non-ascii-comment-crlf": "# café\r\n1.0 ZZ\r\n0.5 XI\r".encode("utf-8"),
    "no-break-space": "1.0\u00a0ZZ\n".encode("utf-8"),
    "line-separator": "1.0 ZZ\u20280.5 XI\n".encode("utf-8"),
    "empty": b"",
    "only-line-ends": b"\r\n\r\r\n",
    "repeated-words-crlf": b"0.5 ZZ\r\n0.25 ZZ\r\n-0.5 XI\r\n0.5 XI\r\n1.0 IY",
}


def outcome(load, path):
    try:
        h = load(path)
    except HamiltonianParseError as exc:
        return "error", str(exc), exc.line_no
    return "ok", h.n_qubits, h.words, h.coefficients.tolist()


def cli_outcome(path, capsys):
    code = main(["cost", "--ham", str(path), "--t", "1", "--eps", "1e-3", "--no-fairness"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(FILES))
def test_file_loads_as_the_reference(name, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(FILES[name])
    expected = outcome(reference_load_hamiltonian, path)
    assert outcome(cli._load_hamiltonian, path) == expected
    code, err = cli_outcome(path, capsys)
    if expected[0] == "ok":
        assert (code, err) == (EXIT_OK, "")
    else:
        assert (code, err) == (EXIT_PARSE, f"parse error: {expected[1]}\n")


def test_decode_error_names_the_byte_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1.0 ZZ\n" * 1000 + b"\x80\n")
    with pytest.raises(HamiltonianParseError, match=r"position 7000: invalid start byte"):
        cli._load_hamiltonian(path)


def test_parse_takes_ascii_bytes_only():
    assert parse_hamiltonian(b"1.0 ZZ\r\n0.5 XI") == parse_hamiltonian("1.0 ZZ\n0.5 XI")
    with pytest.raises(UnicodeDecodeError):
        parse_hamiltonian("1.0 ZZ # caf\u00e9".encode("utf-8"))


def test_missing_file_is_the_reference_read_error(tmp_path, capsys):
    path = tmp_path / "missing.txt"
    expected = outcome(reference_load_hamiltonian, path)
    assert expected[0] == "error" and expected[1].startswith("cannot read ")
    assert outcome(cli._load_hamiltonian, path) == expected
    assert cli_outcome(path, capsys) == (EXIT_PARSE, f"parse error: {expected[1]}\n")


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("bad", [None, b"0.5 ZA", b"1.0 X"], ids=["valid", "bad-letter", "short-word"])
def test_many_block_file_with_each_line_end_loads_as_the_reference(line_end, bad, tmp_path):
    # Blocks of 7 lines and newline scans of 64 bytes: line ends fall at
    # many offsets of a scan window, and a \r\n never spans two blocks.
    # A valid file never takes the line path.
    lines = scrambled_hamiltonian(300, 5, key=3).serialize().encode("ascii").splitlines()
    if bad is not None:
        lines[217] = bad
    path = tmp_path / "h.txt"
    path.write_bytes(line_end.join(lines) + line_end)
    expected = outcome(reference_load_hamiltonian, path)
    assert expected[0] == ("ok" if bad is None else "error")
    lines_path = hamiltonian._parse_lines if bad else mock.Mock(side_effect=AssertionError("line path"))
    with mock.patch.object(hamiltonian, "_BLOCK_LINES", 7), mock.patch.object(hamiltonian, "_SCAN_BYTES", 64), \
            mock.patch.object(hamiltonian, "_parse_lines", lines_path):
        assert outcome(cli._load_hamiltonian, path) == expected
    if bad is not None:
        assert expected[2] == 218


def test_ascii_file_is_parsed_as_bytes_without_a_text_copy(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_bytes(wide_hamtxt().replace("\n", "\r\n").encode("ascii"))
    with mock.patch.object(hamiltonian, "_parse_lines", side_effect=AssertionError("line path")), \
            mock.patch.object(hamiltonian, "parse_hamiltonian", wraps=hamiltonian.parse_hamiltonian) as parse:
        h = cli._load_hamiltonian(path)
    (data,), _ = parse.call_args
    assert type(data) is bytes
    ref = reference_load_hamiltonian(path)
    assert h == ref and h.words == ref.words

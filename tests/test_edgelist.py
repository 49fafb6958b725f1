import io
import sys

import pytest
from hypothesis import given

import sbgraph as sg
from sbgraph.cli import main
from helpers import c3, digraphs, run_cli_capped


def test_parse_cycle():
    g = sg.parse_edge_list("3 3\n0 1\n1 2\n2 0\n")
    assert g == c3()
    assert sg.parse_edge_list(b"3 3\r\n0 1\r\n1 2\r\n2 0\r\n") == g
    assert sg.parse_edge_list("3 3\r0 1\r1 2\r\n2 0") == g


def test_parse_accepts_bytes_and_streams():
    text = "2 1\n0 1\n"
    g = sg.parse_edge_list(text)
    assert sg.parse_edge_list(text.encode()) == g
    assert sg.parse_edge_list(io.StringIO(text)) == g
    assert sg.parse_edge_list(io.BytesIO(text.encode())) == g


@pytest.mark.parametrize(
    "wrap", [io.BytesIO, lambda data: io.StringIO(data.decode())],
    ids=["bytes", "text"],
)
def test_stream_longer_than_the_cap_is_refused(monkeypatch, wrap):
    # An input of exactly MAX_INPUT_BYTES parses; one more byte does not.
    data = b"3 3\n0 1\n1 2\n2 0\n"
    monkeypatch.setattr(sg.edgelist, "_CHUNK", 4)
    monkeypatch.setattr(sg.edgelist, "MAX_INPUT_BYTES", len(data))
    assert sg.parse_edge_list(wrap(data)) == c3()
    monkeypatch.setattr(sg.edgelist, "MAX_INPUT_BYTES", len(data) - 1)
    cap = f"input longer than {len(data) - 1} bytes"
    with pytest.raises(sg.EdgeListParseError, match=cap):
        sg.parse_edge_list(wrap(data))


def test_parse_comments_and_blank_lines():
    g = sg.parse_edge_list("# a comment\n\n3 1\n# another\n0 1\n\n")
    assert g.n == 3
    assert g.edges == ((0, 1),)


def test_parse_out_of_range_reports_line():
    with pytest.raises(sg.EdgeListParseError) as exc:
        sg.parse_edge_list("2 1\n0 2\n")
    assert exc.value.line == 2
    assert "out of range" in str(exc.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing"),
        ("abc\n", "header"),
        ("2 1 9\n", "header"),
        ("2 1\n0\n", "expected 'u v'"),
        ("2 1\n0 x\n", "two integers"),
        ("2 1\n0 0\n", "self-loop"),
        ("2 2\n0 1\n0 1\n", "duplicate"),
        ("2 1\n0 1\n1 0\n", "more than the declared"),
        ("2 2\n0 1\n", "found 1"),
        (b"3 1\n0 \xff\n", "line 2: invalid UTF-8"),
        # Lines end at LF, CRLF or a lone CR only, for the parser and the
        # decoder alike.
        (b"2 2\n0 1\x0c\n1 x\n", "line 3: malformed arc"),
        (b"3 3\n0 1\xe2\x80\xa81 2\n2 0\n", "line 2: malformed arc"),
        (b"2 1\n\x0c\n0 \xff\n", "line 3: invalid UTF-8"),
        (b"3 3\r\n\r\n0 1\r1 x\r\n", "line 4: malformed arc"),
        # Fields are ASCII decimal, with no sign but a minus.
        ("2 1\n0 +1\n", "line 2: malformed arc '0 +1', expected two"),
        ("3 1\n1 \u0662\n", "line 2: malformed arc"),
        ("11 1\n0 1_0\n", "line 2: malformed arc '0 1_0', expected two"),
    ],
)
def test_parse_errors(text, fragment, tmp_path, monkeypatch, capsys):
    with pytest.raises(sg.EdgeListParseError) as exc:
        sg.parse_edge_list(text)
    assert fragment in str(exc.value)
    assert (exc.value.line is None) == (text == "")
    # A file argument and stdin read the same bytes to the same error.
    data = text if isinstance(text, bytes) else text.encode()
    path = tmp_path / "input.edges"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    for source in (str(path), "-"):
        assert main(["check", source]) == 2
        assert capsys.readouterr().err == f"parse error: {exc.value}\n"


def test_parse_text_stream_with_invalid_utf8(tmp_path):
    # The stream decodes before the parser sees a line, so none is named.
    path = tmp_path / "input.edges"
    path.write_bytes(b"3 1\n0 \xff\n")
    with open(path, encoding="utf-8") as stream:
        with pytest.raises(sg.EdgeListParseError) as exc:
            sg.parse_edge_list(stream)
    assert exc.value.line is None
    assert str(exc.value).startswith("invalid UTF-8 (")


@pytest.mark.parametrize("encoding, reason", [
    ("ascii", "ordinal not in range(128)"),
    ("cp1252", "character maps to <undefined>"),
    ("utf-16", "UTF-16 stream does not start with BOM"),
])
def test_parse_text_stream_names_its_codec(encoding, reason):
    # Valid UTF-8 that the stream's own codec cannot decode: the error
    # names that codec, not UTF-8.
    data = "# caf\u00e9\u0081\n2 1\n0 1\n".encode()
    stream = io.TextIOWrapper(io.BytesIO(data), encoding=encoding)
    with pytest.raises(sg.EdgeListParseError) as exc:
        sg.parse_edge_list(stream)
    assert exc.value.line is None
    assert str(exc.value) == f"invalid {encoding} ({reason})"


def test_fixture_files_parse(fig1, fig2):
    assert (fig1.n, fig1.m) == (16, 29)
    assert (fig2.n, fig2.m) == (20, 32)


def test_emit_roundtrip_cycle():
    g = c3()
    assert sg.parse_edge_list(sg.emit_edge_list(g)) == g


def test_emit_comment_header():
    text = sg.emit_edge_list(c3(), comment="hello\nworld")
    assert text.startswith("# hello\n# world\n3 3\n")
    assert sg.parse_edge_list(text) == c3()


@given(digraphs())
def test_emit_parse_roundtrip(g):
    assert sg.parse_edge_list(sg.emit_edge_list(g)) == g


def test_huge_header_n_is_refused_before_allocating():
    proc = run_cli_capped(["analyze", "-"], stdin="100000000000 0\n")
    assert proc.returncode == 3, proc.stderr
    assert "more than the limit" in proc.stderr
    assert "Traceback" not in proc.stderr

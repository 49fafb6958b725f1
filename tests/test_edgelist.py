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


def test_parse_accepts_bytes_and_streams():
    text = "2 1\n0 1\n"
    g = sg.parse_edge_list(text)
    assert sg.parse_edge_list(text.encode()) == g
    assert sg.parse_edge_list(io.StringIO(text)) == g
    assert sg.parse_edge_list(io.BytesIO(text.encode())) == g


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

import io

import pytest
from hypothesis import given

import sbgraph as sg
from helpers import c3, digraphs, run_cli_capped


def test_parse_cycle():
    g = sg.parse_edge_list("3 3\n0 1\n1 2\n2 0\n")
    assert g == c3()


def test_parse_accepts_bytes_and_streams():
    text = "2 1\n0 1\n"
    assert sg.parse_edge_list(text.encode()) == sg.parse_edge_list(text)
    assert sg.parse_edge_list(io.StringIO(text)) == sg.parse_edge_list(text)


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
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(sg.EdgeListParseError) as exc:
        sg.parse_edge_list(text)
    assert fragment in str(exc.value)


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

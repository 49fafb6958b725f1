import io
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import sbgraph as sg
from sbgraph import edgelist
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


@pytest.mark.parametrize(
    "text,message",
    [
        # The first offending line wins, whatever kind its error is.
        ("3 3\n0 1\n0 1\n1 x\n", "line 3: duplicate edge (0, 1)"),
        ("3 2\n1 1\n0 5\n", "line 2: self-loop at vertex 1"),
        ("3 1\n0 x\n1 2\n", "line 2: malformed arc '0 x', expected two"),
        ("3 1\n0 1\n1 x\n", "line 3: more than the declared 1 arcs"),
        ("3 2\n0 1\n", "line 2: declared 2 arcs but found 1"),
        ("3 2\n# only a comment\n", "line 1: declared 2 arcs but found 0"),
        ("٣ 1\n0 1\n", "line 1: malformed header '٣ 1', expected"),
        ("2 1\n0 " + "1" * 5000 + "\n", "line 2: malformed arc '0 111"),
        ("1" * 5000 + " 0\n", "line 1: malformed header '111"),
    ],
)
def test_first_error_precedence(text, message):
    with pytest.raises(sg.EdgeListParseError) as exc:
        sg.parse_edge_list(text)
    assert str(exc.value).startswith(message)


def _field(draw, value):
    """value as a field: sometimes with leading zeros, 0 sometimes as -0."""
    text = str(value)
    if value >= 0 and draw(st.integers(0, 4)) == 0:
        text = "0" * draw(st.integers(1, 2)) + text
    if value == 0 and draw(st.booleans()):
        text = "-0"
    return text


# Each fault of an edge list that the readers must refuse alike.
FAULTS = (
    "range", "loop", "duplicate", "count", "field", "extra", "joined",
    "shift",
)
# Fields that an arc line may not hold.
BAD_FIELDS = ("x", "+1", "1_0", "\u0663", "1-2", "--1", "-", "1" * 5000)


@st.composite
def edge_list_texts(draw):
    """Edge lists, half of them well formed, the rest with one or two
    faults: an id out of range, a self-loop, a duplicate, a wrong arc
    count, a bad field, an extra field, two lines run together, or a
    field moved to the line before.  Lines end
    at LF, CRLF or a lone CR, fields are split by spaces and tabs, and
    comments, blank and whitespace lines come between them."""
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 10**7]))
    k = min(n, 9)
    pairs = [(u, v) for u in range(k) for v in range(k) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)
                if pairs else st.just([]))
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2)
                  if draw(st.booleans()) else st.just([]))
    m = len(arcs)
    rows = [[u, v] for u, v in arcs]
    for fault in faults:
        at = draw(st.integers(0, len(rows)))
        last = min(at, len(rows) - 1)
        if fault == "range":
            bad = draw(st.sampled_from([-1, n, n + 1]))
            rows.insert(at, draw(st.sampled_from([[0, bad], [bad, 0]])))
            m += 1
        elif fault == "loop":
            rows.insert(at, [draw(st.integers(0, max(k - 1, 0)))] * 2)
            m += 1
        elif fault == "duplicate" and rows:
            rows.insert(at, list(draw(st.sampled_from(rows))))
            m += 1
        elif fault == "count":
            m += draw(st.sampled_from([-1, 1]))
        elif fault == "field" and rows:
            bad = draw(st.sampled_from(BAD_FIELDS))
            # A shifted line may hold one field.
            rows[last][draw(st.integers(0, len(rows[last]) - 1))] = bad
        elif fault == "extra" and rows:
            rows[last].append(draw(st.integers(0, 9)))
        elif fault == "joined" and len(rows) >= 2:
            # Two arc lines run together, with a stray field between.
            at = min(at, len(rows) - 2)
            rows[at] += [draw(st.integers(0, 9)), *rows.pop(at + 1)]
        elif fault == "shift" and len(rows) >= 2:
            at = min(at, len(rows) - 2)
            rows[at].append(rows[at + 1].pop(0))
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    pad = st.sampled_from(["", "", " ", "\t", " \t"])

    def line(fields):
        return draw(pad) + draw(sep).join(
            f if isinstance(f, str) else _field(draw, f) for f in fields
        ) + draw(pad)

    lines = [line([n, m])] + [line(fields) for fields in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(
            draw(st.integers(0, len(lines))),
            draw(st.sampled_from(["", "   ", "# note", "  # 0 1", "\t", "#"])),
        )
    end = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(end) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(parse, text):
    try:
        g = parse(text)
    except sg.GraphError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return g.n, g.edges


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_whole_input_reader_matches_the_line_reader(text):
    # The graph, with its edges in input order, or the same error: type,
    # message and line.
    assert _outcome(sg.parse_edge_list, text) == _outcome(
        edgelist._parse_lines, text
    )


BOM = "\ufeff"


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    text = "3 3\n0 1\n1 2\n2 0\n"
    g = sg.parse_edge_list(text)
    for source in (
        BOM + text,
        (BOM + text).encode(),
        io.StringIO(BOM + text),
        io.BytesIO((BOM + text).encode()),
    ):
        assert sg.parse_edge_list(source).edges == g.edges
    # One mark only; line numbers count as without it.
    with pytest.raises(sg.EdgeListParseError, match="line 1: malformed"):
        sg.parse_edge_list(BOM + BOM + text)
    with pytest.raises(sg.EdgeListParseError, match="line 3: duplicate"):
        sg.parse_edge_list((BOM + "3 2\n0 1\n0 1\n").encode())
    with pytest.raises(sg.EdgeListParseError, match="line 2: invalid UTF-8"):
        sg.parse_edge_list((BOM + "3 1\n").encode() + b"0 \xff\n")
    # The CLI on a file argument prints what it prints without the mark.
    outputs = []
    for name, data in (("plain", text), ("marked", BOM + text)):
        path = tmp_path / f"{name}.edges"
        path.write_bytes(data.encode())
        assert main(["analyze", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


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

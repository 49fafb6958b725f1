"""Edge-list file format.

UTF-8 text.  First non-comment line: "n m".  Then exactly m lines "u v"
with 0-based endpoints.  Lines starting with '#' (after optional
whitespace) and blank lines are ignored.  Parse errors, including a byte
that is not UTF-8, carry the 1-based line number, with one exception: a
text-mode stream decodes before the parser sees any line, so its invalid
UTF-8 is an error with no line.  The arcs go straight
to `Digraph`, the one place that checks their range, self-loops and
duplicates; its errors come back with the line of the offending arc.
"""

from __future__ import annotations

from .errors import (
    DuplicateEdgeError,
    EdgeListParseError,
    SelfLoopError,
    VertexRangeError,
)
from .graph import Digraph


def _decode(data):
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # A sentinel after the valid prefix lands on the bad byte's line.
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise EdgeListParseError(
            f"invalid UTF-8 ({exc.reason})", line=line
        ) from None


def _data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _pair(kind, names, line, lineno):
    """The two integers of a header ("n m") or arc ("u v") line."""
    parts = line.split()
    if len(parts) != 2:
        raise EdgeListParseError(
            f"malformed {kind} {line!r}, expected {names!r}", line=lineno
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListParseError(
            f"malformed {kind} {line!r}, expected two integers", line=lineno
        ) from None


def parse_edge_list(source):
    """Parse an edge list from a str, UTF-8 bytes, or readable file object."""
    if hasattr(source, "read"):
        try:
            source = source.read()
        except UnicodeDecodeError as exc:
            raise EdgeListParseError(f"invalid UTF-8 ({exc.reason})") from None
    if isinstance(source, bytes):
        source = _decode(source)
    lines = _data_lines(source)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise EdgeListParseError("empty input: missing 'n m' header") from None
    n, m = _pair("header", "n m", header, lineno)
    if n < 0 or m < 0:
        raise EdgeListParseError(
            f"negative counts in header {header!r}", line=lineno
        )

    def arcs():
        # lineno follows the arc being read, so an error names its line.
        nonlocal lineno
        for count, (lineno, line) in enumerate(lines):
            if count == m:
                raise EdgeListParseError(
                    f"more than the declared {m} arcs", line=lineno
                )
            yield _pair("arc", "u v", line, lineno)

    try:
        g = Digraph(n, arcs())
    except (VertexRangeError, SelfLoopError, DuplicateEdgeError) as exc:
        raise EdgeListParseError(str(exc), line=lineno) from None
    if g.m != m:
        raise EdgeListParseError(
            f"declared {m} arcs but found {g.m}", line=lineno
        )
    return g


def emit_edge_list(g, comment=None):
    """Serialize a digraph in the same format; parse(emit(g)) == g."""
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(f"{g.n} {g.m}")
    for u, v in g.edges:
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"

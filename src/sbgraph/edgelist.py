"""Edge-list file format.

First non-comment line: "n m".  Then exactly m lines "u v" with 0-based
endpoints.  Lines starting with '#' (after optional whitespace) and blank
lines are ignored.  Parse errors carry the 1-based line number.
"""

from __future__ import annotations

from .errors import EdgeListParseError
from .graph import Digraph


def _data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_edge_list(source):
    """Parse an edge list from a str, bytes, or readable file object."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    lines = _data_lines(source)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise EdgeListParseError("empty input: missing 'n m' header") from None
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListParseError(
            f"malformed header {header!r}, expected 'n m'", line=lineno
        )
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListParseError(
            f"malformed header {header!r}, expected two integers", line=lineno
        ) from None
    if n < 0 or m < 0:
        raise EdgeListParseError(
            f"negative counts in header {header!r}", line=lineno
        )
    edges = []
    seen = set()
    last_line = lineno
    for lineno, line in lines:
        last_line = lineno
        if len(edges) == m:
            raise EdgeListParseError(
                f"more than the declared {m} arcs", line=lineno
            )
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"malformed arc {line!r}, expected 'u v'", line=lineno
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"malformed arc {line!r}, expected two integers", line=lineno
            ) from None
        if not (0 <= u < n) or not (0 <= v < n):
            raise EdgeListParseError(
                f"endpoint out of range in arc ({u}, {v}) with n={n}",
                line=lineno,
            )
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", line=lineno)
        if (u, v) in seen:
            raise EdgeListParseError(f"duplicate arc ({u}, {v})", line=lineno)
        seen.add((u, v))
        edges.append((u, v))
    if len(edges) != m:
        raise EdgeListParseError(
            f"declared {m} arcs but found {len(edges)}", line=last_line
        )
    # Every arc is checked above, with its line number.
    return Digraph._from_valid(n, edges)


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

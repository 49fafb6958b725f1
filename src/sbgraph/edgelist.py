"""Edge-list file format.

UTF-8 text, with or without a byte-order mark.  First non-comment line:
"n m".  Then exactly m lines "u v" with 0-based endpoints.  Both kinds
of line hold two ASCII decimal integers, optionally negative, separated
by spaces or tabs; whitespace around a line is ignored.  Lines end at
LF, CRLF or a lone CR, and nowhere else.  Lines starting with '#' (after
optional whitespace) and blank lines are ignored.  Parse errors,
including a byte that is not UTF-8, carry the 1-based line number, with
one exception: a text-mode stream decodes before the parser sees any
line, so its decode error names the stream's codec and no line.

One leading U+FEFF, the mark, is dropped after decoding, from bytes, a
str and a text stream alike; it does not count as a line or move one.

The reader checks a whole input at once first (`_parse_whole`): a few
passes over all of it, each in C, accept a well-formed input and build
its `Digraph` without validating the arcs again.  An input that fails
any of those checks is read again line by line (`_parse_lines`), which
stops at the first offending line, so every error, its message and its
line are those of the line-by-line reader alone.  There the arcs go
straight to `Digraph`, the one place that checks their range (a
negative id included), self-loops and duplicates; its errors come back
with the line of the offending arc.

A stream is read in chunks of `_CHUNK` bytes (characters, for a text
stream), and an input longer than `MAX_INPUT_BYTES`, 2^30, is refused
with `EdgeListParseError` once that much has been read, so an endless
stream such as /dev/zero costs at most the cap plus one chunk.  The
cap holds tens of millions of arc lines.
"""

from __future__ import annotations

import codecs
import operator
import re

from .errors import (
    DuplicateEdgeError,
    EdgeListParseError,
    SelfLoopError,
    VertexRangeError,
)
from .graph import Digraph


# The longest input a stream may give, and the size of each read.
MAX_INPUT_BYTES = 1 << 30
_CHUNK = 1 << 16

# A character that no header or arc line holds.
_FOREIGN = re.compile(r"[^0-9 \t-]")
# The bytes that the joined data lines of a well-formed input hold.
_SYNTAX = b"0123456789 \t\n-"


def _lines(text):
    """text split at LF, CRLF and a lone CR: str.splitlines would also
    split at form feeds, other control characters and Unicode line
    separators."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _decode(data):
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # A sentinel after the valid prefix lands on the bad byte's line.
        line = len(_lines(data[:exc.start].decode("utf-8") + "x"))
        raise EdgeListParseError(
            f"invalid UTF-8 ({exc.reason})", line=line
        ) from None


def _codec(stream, exc):
    """Name of the codec a text stream failed to decode with, spelt UTF-8
    for any spelling of UTF-8."""
    name = getattr(stream, "encoding", None) or getattr(exc, "encoding", "")
    try:
        return "UTF-8" if codecs.lookup(name).name == "utf-8" else name
    except LookupError:
        return name or "text"


def _data_lines(text):
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _pair(kind, names, line, lineno):
    """The two integers of a header ("n m") or arc ("u v") line."""
    parts = line.split()
    if len(parts) == 2 and _FOREIGN.search(line) is None:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:  # a misplaced minus, or too many digits
            pass
    two = len(re.split("[ \t]+", line)) == 2
    raise EdgeListParseError(
        f"malformed {kind} {line!r}, expected "
        + ("two integers" if two else repr(names)),
        line=lineno,
    )


def _read(stream):
    """Everything `stream` gives, read in chunks, up to MAX_INPUT_BYTES."""
    chunks = []
    size = 0
    while True:
        chunk = stream.read(_CHUNK)
        if not chunk:  # the end: chunk is b"" or "", as the stream gives
            return chunk.join(chunks)
        size += len(chunk)
        if size > MAX_INPUT_BYTES:
            raise EdgeListParseError(
                f"input longer than {MAX_INPUT_BYTES} bytes"
            )
        chunks.append(chunk)


def parse_edge_list(source):
    """Parse an edge list from a str, UTF-8 bytes, or readable file object
    (see the module docstring for the cap on what a stream may give)."""
    if hasattr(source, "read"):
        try:
            source = _read(source)
        except UnicodeError as exc:
            reason = getattr(exc, "reason", exc)
            raise EdgeListParseError(
                f"invalid {_codec(source, exc)} ({reason})"
            ) from None
    if isinstance(source, bytes):
        source = _decode(source)
    if source.startswith("\ufeff"):  # a byte-order mark
        source = source[1:]
    g = _parse_whole(source)
    return _parse_lines(source) if g is None else g


def _parse_whole(text):
    """The graph of a well-formed `text`, checked by a few passes over the
    whole input that each run in C, or None when any check fails: then
    `_parse_lines` reads it again and names the first offending line.

    The data lines, joined, may hold only ASCII digits, minus signs,
    spaces, tabs and the joins.  With each join spelt " ; ", the fields
    must then alternate u, v, ";", so each line holds two fields, every
    field but ";" must be an int, the first line must declare n >= 0 and
    the m arcs that follow, and the arcs must be in range, with no
    self-loop and no duplicate.  Each intermediate is dropped as soon as
    the next one is built.  (One regular expression over the whole text
    would do the line check too, but the engine keeps a backtracking
    entry per line: 93 MiB at 10^5 vertices.)
    """
    data = "\n".join(filter(None, map(str.strip, _lines(text))))
    if "#" in data:
        data = "\n".join(line for line in data.split("\n") if line[0] != "#")
    if not data.isascii() or data.encode().translate(None, _SYNTAX):
        return None
    fields = data.replace("\n", " ; ").split()
    del data
    if len(fields) % 3 != 2 or fields[2::3].count(";") != len(fields) // 3:
        return None
    try:
        tails = list(map(int, fields[0::3]))
        heads = list(map(int, fields[1::3]))
    except ValueError:  # a misplaced minus, or more digits than int() takes
        return None
    del fields
    n, m = tails.pop(0), heads.pop(0)
    if n < 0 or len(tails) != m:
        return None
    if m and (min(min(tails), min(heads)) < 0
              or max(max(tails), max(heads)) >= n
              or any(map(operator.eq, tails, heads))):
        return None
    edges = list(zip(tails, heads))
    del tails, heads
    if len(set(edges)) != m:
        return None
    return Digraph._from_valid(n, edges)


def _parse_lines(text):
    """Read `text` line by line, and stop at the first line at fault."""
    lines = _data_lines(text)
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

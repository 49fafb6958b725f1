"""Aggregate analysis report with deterministic JSON serialization.

Key order is fixed, every list is canonically ordered, and all ids are
0-based integers, so identical inputs yield byte-identical output.
`json_text` writes it, and every other JSON output of the CLI, with the
bytes of json.dumps(indent=2).
Computations whose preconditions fail are marked skipped with a reason
instead of erroring the whole report.  `FAMILIES` lists every
decomposition once, in report key order; `analyze`, the CLI's `analyze`,
`blocks` and `export-dot` commands all read it.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, fields

from .blocks import (
    two_edge_biconnected_blocks,
    two_edge_blocks,
    two_strong_biconnected_blocks,
    two_strong_blocks,
)
from .connectivity import is_strongly_biconnected, is_strongly_connected
from .resilience import b_articulation_points, b_bridges
from .sbc import strongly_biconnected_components

SKIP_NOT_SB = {"skipped": "input not strongly biconnected"}
SKIP_NOT_SC = {"skipped": "input not strongly connected"}


@dataclass(frozen=True)
class AnalysisReport:
    """Every decomposition of one graph; field order is the JSON key
    order."""

    n: int
    m: int
    strongly_biconnected: bool
    b_bridges: object
    b_articulation_points: object
    sbc: list
    blocks_2eb: object
    blocks_2sb: object
    blocks_2e: object
    blocks_2s: object

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _family(blocks):
    return [list(b) for b in blocks]


@dataclass(frozen=True)
class Family:
    """One decomposition: its AnalysisReport field, its `sbgraph blocks
    --kind`, the input it requires ("sb" strongly biconnected, "sc"
    strongly connected, None anything) and how to compute its JSON
    value."""

    key: str
    kind: str
    requires: str | None
    compute: object


# In report key order.  Each compute looks its function up in this
# module when it runs, so rebinding the module attribute reaches it.
FAMILIES = (
    Family("b_bridges", "bbridges", "sb", lambda g: _family(b_bridges(g))),
    Family(
        "b_articulation_points", "bap", "sb",
        lambda g: list(b_articulation_points(g)),
    ),
    Family(
        "sbc", "sbc", None,
        lambda g: _family(strongly_biconnected_components(g).components),
    ),
    Family(
        "blocks_2eb", "2eb", "sb",
        lambda g: _family(two_edge_biconnected_blocks(g)),
    ),
    Family(
        "blocks_2sb", "2sb", "sb",
        lambda g: _family(two_strong_biconnected_blocks(g)),
    ),
    Family("blocks_2e", "2e", "sc", lambda g: _family(two_edge_blocks(g))),
    Family("blocks_2s", "2s", "sc", lambda g: _family(two_strong_blocks(g))),
)

_SKIPS = {"sb": SKIP_NOT_SB, "sc": SKIP_NOT_SC}


def analyze(g):
    """Run every applicable decomposition on g."""
    sb = is_strongly_biconnected(g)
    holds = {None: True, "sb": sb, "sc": is_strongly_connected(g)}
    return AnalysisReport(
        n=g.n,
        m=g.m,
        strongly_biconnected=sb,
        **{
            f.key: f.compute(g) if holds[f.requires] else _SKIPS[f.requires]
            for f in FAMILIES
        },
    )


def emit_report(g):
    """Serialize analyze(g) as deterministic JSON text."""
    return render_report(analyze(g))


def render_report(report):
    return json_text(report.as_dict()) + "\n"


def json_text(value):
    """The text of json.dumps(value, indent=2, separators=(",", ": ")),
    byte for byte, for a value built of dicts with str keys, lists,
    tuples and JSON leaves.  Int leaves are written with str and every
    other leaf goes through json.dumps, in fewer steps per leaf than the
    json module's indenting encoder takes."""
    out = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline, out):
    """Append the chunks of `value` to out; `newline` is a newline and the
    indent of the line that holds value."""
    if type(value) is int:
        out.append(str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + json.dumps(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            # Vertex ids, most of a report's leaves, skip the call.
            if type(item) is int:
                out.append(str(item))
            else:
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def report_schema():
    """Parsed JSON schema that emitted reports validate against."""
    resource = importlib.resources.files(__package__).joinpath(
        "schema/report.schema.json"
    )
    return json.loads(resource.read_text(encoding="utf-8"))

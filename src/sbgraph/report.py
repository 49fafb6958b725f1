"""Aggregate analysis report with deterministic JSON serialization.

Key order is fixed, every list is canonically ordered, and all ids are
0-based integers, so identical inputs yield byte-identical output.
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
    return json.dumps(report.as_dict(), indent=2, separators=(",", ": ")) + "\n"


def report_schema():
    """Parsed JSON schema that emitted reports validate against."""
    resource = importlib.resources.files(__package__).joinpath(
        "schema/report.schema.json"
    )
    return json.loads(resource.read_text(encoding="utf-8"))

"""Aggregate analysis report with deterministic JSON serialization.

Key order is fixed, every list is canonically ordered, and all ids are
0-based integers, so identical inputs yield byte-identical output.
Computations whose preconditions fail are marked skipped with a reason
instead of erroring the whole report.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass

from .blocks import (
    two_edge_biconnected_blocks,
    two_edge_blocks,
    two_strong_biconnected_blocks,
    two_strong_blocks,
)
from .connectivity import is_strongly_biconnected, is_strongly_connected
from .resilience import _strong_cuts, cut_report
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

    _FIELDS = (
        "n",
        "m",
        "strongly_biconnected",
        "b_bridges",
        "b_articulation_points",
        "sbc",
        "blocks_2eb",
        "blocks_2sb",
        "blocks_2e",
        "blocks_2s",
    )

    def as_dict(self):
        return {name: getattr(self, name) for name in self._FIELDS}


def _family(blocks):
    return [list(b) for b in blocks]


def analyze(g):
    """Run every applicable decomposition on g."""
    sb = is_strongly_biconnected(g)
    sc = sb or is_strongly_connected(g)
    # One sweep finds every single-failure cut; each family is handed the
    # set it probes.
    if sb:
        cuts = cut_report(g)
        strong = cuts.strong_bridges, cuts.strong_articulation_points
        bridges = [list(e) for e in cuts.b_bridges]
        baps = list(cuts.b_articulation_points)
        eb = _family(two_edge_biconnected_blocks(g, _bridges=cuts.b_bridges))
        sbb = _family(
            two_strong_biconnected_blocks(
                g, _articulation_points=cuts.b_articulation_points
            )
        )
    else:
        strong = _strong_cuts(g) if sc else None
        bridges = baps = eb = sbb = SKIP_NOT_SB
    if sc:
        e2 = _family(two_edge_blocks(g, _bridges=strong[0]))
        s2 = _family(two_strong_blocks(g, _articulation_points=strong[1]))
    else:
        e2 = s2 = SKIP_NOT_SC
    return AnalysisReport(
        n=g.n,
        m=g.m,
        strongly_biconnected=sb,
        b_bridges=bridges,
        b_articulation_points=baps,
        sbc=_family(strongly_biconnected_components(g).components),
        blocks_2eb=eb,
        blocks_2sb=sbb,
        blocks_2e=e2,
        blocks_2s=s2,
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

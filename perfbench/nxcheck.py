"""Correctness gate: recheck an analyze report with networkx.

Checked fields: n and m, the strongly-connected and strongly-biconnected
verdicts (a report skips exactly the families whose precondition fails),
b-bridges and b-articulation points by the definition (delete, then test
strong biconnectivity), and the 2-edge blocks against
`networkx.k_edge_components(D, 2)`.  Nothing here imports sbgraph.
"""

from __future__ import annotations

import json

import networkx as nx


def _is_sb(d):
    return nx.is_strongly_connected(d) and nx.is_biconnected(
        d.to_undirected(as_view=True)
    )


def _canonical(sets):
    fam = [sorted(s) for s in sets]
    fam.sort(key=lambda b: (b[0], len(b), b))
    return fam


def check_report(n, arcs, report_text):
    """(problems, facts) for one input; `problems` is empty when the
    report agrees with networkx on every checked field."""
    report = json.loads(report_text)
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    d.add_edges_from(arcs)
    sc = nx.is_strongly_connected(d)
    sb = sc and nx.is_biconnected(d.to_undirected(as_view=True))
    problems = []
    facts = {"n": n, "m": len(arcs), "sc": sc, "sb": sb}
    if (report["n"], report["m"]) != (n, len(arcs)):
        problems.append("n/m")
    if report["strongly_biconnected"] != sb:
        problems.append("strongly_biconnected")
    if sb:
        bridges = []
        for e in sorted(arcs):
            d.remove_edge(*e)
            if not _is_sb(d):
                bridges.append(list(e))
            d.add_edge(*e)
        points = [
            w for w in range(n) if not _is_sb(d.subgraph(set(range(n)) - {w}))
        ]
        facts["b_bridges"] = len(bridges)
        facts["b_articulation_points"] = len(points)
        if report["b_bridges"] != bridges:
            problems.append("b_bridges")
        if report["b_articulation_points"] != points:
            problems.append("b_articulation_points")
    elif not (
        isinstance(report["b_bridges"], dict)
        and isinstance(report["b_articulation_points"], dict)
    ):
        problems.append("b_bridges/b_articulation_points not skipped")
    if sc:
        blocks = _canonical(
            c for c in nx.k_edge_components(d, 2) if len(c) >= 2
        )
        if report["blocks_2e"] != blocks:
            problems.append("blocks_2e")
    elif not isinstance(report["blocks_2e"], dict):
        problems.append("blocks_2e not skipped")
    return problems, facts

import json
import sys
from collections import Counter

import jsonschema
import pytest

import sbgraph as sg
from sbgraph.graph import Digraph, UndirectedGraph
from helpers import (
    bidirected_complete,
    bidirected_cycle,
    c3,
    glued,
    one_based,
    random_sb_corpus,
    single_arc,
    two_triangles,
)
from sbgraph.report import SKIP_NOT_SB, SKIP_NOT_SC, render_report

SCHEMA = sg.report_schema()


def _validated(g, **kwargs):
    data = json.loads(sg.emit_report(g, **kwargs))
    jsonschema.validate(data, SCHEMA)
    return data


def test_report_cycle():
    data = _validated(c3())
    assert data["n"] == 3
    assert data["m"] == 3
    assert data["strongly_biconnected"] is True
    assert len(data["b_bridges"]) == 3
    assert data["blocks_2eb"] == []
    assert data["sbc"] == [[0, 1, 2]]


def test_report_complete():
    data = _validated(bidirected_complete(4))
    assert data["blocks_2eb"] == [[0, 1, 2, 3]]
    assert data["b_bridges"] == []
    assert data["b_articulation_points"] == []


def test_report_fig1(fig1):
    data = _validated(fig1)
    assert data["blocks_2eb"] == [
        list(one_based(4, 15)),
        list(one_based(4, 9, 10, 11, 12, 13, 14)),
    ]
    assert list(one_based(4, 9, 10, 11, 12, 13, 14, 15)) in data["blocks_2e"]


def test_report_fig2(fig2):
    data = _validated(fig2)
    assert data["blocks_2sb"] == [
        list(one_based(1, 2, 3, 4)),
        list(one_based(3, 4, 5, 6)),
    ]


def test_report_key_order():
    data = json.loads(sg.emit_report(c3()))
    assert list(data.keys()) == [
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
    ]


def test_report_skips_when_not_strongly_biconnected():
    data = _validated(two_triangles())  # strongly connected, not biconnected
    assert data["strongly_biconnected"] is False
    assert data["b_bridges"] == {"skipped": "input not strongly biconnected"}
    assert data["blocks_2eb"] == {"skipped": "input not strongly biconnected"}
    assert isinstance(data["blocks_2e"], list)  # strongly connected: computed
    assert data["sbc"] == [[0, 1, 2], [2, 3, 4]]


def test_report_skips_when_not_strongly_connected():
    data = _validated(single_arc())
    assert data["blocks_2e"] == {"skipped": "input not strongly connected"}
    assert data["blocks_2s"] == {"skipped": "input not strongly connected"}
    assert data["sbc"] == [[0], [1]]


def test_report_bytes_stable(fig1):
    assert sg.emit_report(fig1) == sg.emit_report(fig1)


def test_analyze_returns_dataclass(fig1):
    report = sg.analyze(fig1)
    assert isinstance(report, sg.AnalysisReport)
    assert report.n == 16
    assert report.as_dict()["m"] == 29


def _report_from_families(g):
    """The report analyze should give, with every family called alone."""
    sb = sg.is_strongly_biconnected(g)
    sc = sg.is_strongly_connected(g)

    def family(fn, skip, ok):
        return [list(b) for b in fn(g)] if ok else skip

    return sg.AnalysisReport(
        n=g.n,
        m=g.m,
        strongly_biconnected=sb,
        b_bridges=family(sg.b_bridges, SKIP_NOT_SB, sb),
        b_articulation_points=(
            list(sg.b_articulation_points(g)) if sb else SKIP_NOT_SB
        ),
        sbc=[list(c) for c in sg.strongly_biconnected_components(g).components],
        blocks_2eb=family(sg.two_edge_biconnected_blocks, SKIP_NOT_SB, sb),
        blocks_2sb=family(sg.two_strong_biconnected_blocks, SKIP_NOT_SB, sb),
        blocks_2e=family(sg.two_edge_blocks, SKIP_NOT_SC, sc),
        blocks_2s=family(sg.two_strong_blocks, SKIP_NOT_SC, sc),
    )


def test_analyze_bytes_match_families_called_alone(fig1, fig2):
    corpus = random_sb_corpus(8, seed_base=900, nmax=10)
    graphs = [fig1, fig2, two_triangles(), single_arc(), glued(fig1, fig2)]
    for g in graphs + corpus:
        assert sg.emit_report(g) == render_report(_report_from_families(g))


def _cycle_plus_chord():
    cycle = bidirected_cycle(8)
    return sg.build_digraph(8, list(cycle.edges) + [(0, 4)])


@pytest.mark.parametrize("shape", ["fig1", "cycle_plus_chord"])
def test_analyze_copies_no_graph(monkeypatch, fig1, shape):
    g = fig1 if shape == "fig1" else _cycle_plus_chord()
    # A fresh graph, so nothing is cached on it yet.
    g = sg.build_digraph(g.n, g.edges)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Rebind every sbgraph name for the two graph-copying views.
    for name in ("remove_edge", "remove_vertex"):
        fn = getattr(sg.graph, name)
        for modname, mod in list(sys.modules.items()):
            if modname == "sbgraph" or modname.startswith("sbgraph."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, counting(name, fn))
    from_valid = Digraph._from_valid.__func__
    monkeypatch.setattr(
        Digraph, "_from_valid",
        classmethod(counting("_from_valid", from_valid)),
    )
    monkeypatch.setattr(
        UndirectedGraph, "__init__",
        counting("UndirectedGraph", UndirectedGraph.__init__),
    )
    report = sg.analyze(g)
    assert report.strongly_biconnected
    assert calls["remove_edge"] == calls["remove_vertex"] == 0
    assert calls["_from_valid"] == 0
    assert calls["UndirectedGraph"] <= 1

"""Every fact derived from a graph alone is computed once and kept on the
graph, so the families of one graph share one cut pass and one verdict
of each kind, whichever of them is called and in whatever order."""

import collections
import sys
import threading

import pytest

import sbgraph as sg
from sbgraph import _kernels, blocks, resilience
from sbgraph.resilience import _strong_cuts
from helpers import (
    bidirected_complete,
    c3,
    directed_cycle,
    ear_graph,
    glued,
    reference_two_edge_blocks,
    reference_two_strong_blocks,
    single_arc,
    twin_bridge_graph,
)


def _fresh(g):
    """A copy of g with nothing kept on it yet."""
    return sg.build_digraph(g.n, g.edges)


def _each_family(g):
    sg.b_bridges(g)
    sg.b_articulation_points(g)
    sg.two_edge_biconnected_blocks(g)
    sg.two_strong_biconnected_blocks(g)


@pytest.mark.parametrize("run", [_each_family, sg.analyze])
def test_one_cut_sweep_per_graph(monkeypatch, fig1, run):
    g = _fresh(fig1)
    und_adj = sg.underlying(g).adj
    passes = []
    masked = []
    bcc = _kernels.bcc
    triconnected = resilience.triconnected_components

    def counting_pass(n, edges):
        passes.append(n)
        return triconnected(n, edges)

    def counting(n, adj, sub):
        # One vertex masked out of H: a vertex probe.
        if adj is und_adj and len(sub) == n - 1:
            masked.append(sub)
        return bcc(n, adj, sub)

    monkeypatch.setattr(resilience, "triconnected_components", counting_pass)
    monkeypatch.setattr(_kernels, "bcc", counting)
    run(g)
    cuts = sg.cut_report(g)
    assert passes == [g.n]
    # The probes of the b-articulation points whose deletion leaves one
    # SCC: the others split first.
    weak = set(cuts.b_articulation_points) - set(
        cuts.strong_articulation_points
    )
    assert len(masked) == len(weak) == 2


def test_cut_report_masks_no_vertex(monkeypatch, fig1, fig2):
    masked = []
    bcc = _kernels.bcc

    def counting(n, adj, sub):
        if len(sub) != n:
            masked.append(sub)
        return bcc(n, adj, sub)

    monkeypatch.setattr(_kernels, "bcc", counting)
    for g in (fig1, fig2, bidirected_complete(5)):
        sg.cut_report(_fresh(g))
    assert masked == []


def test_analyze_checks_strong_connectivity_once(monkeypatch, fig1, fig2):
    whole = []
    scc_ids = _kernels.scc_ids

    def counting(n, adj, sub):
        if len(sub) == n:
            whole.append(adj)
        return scc_ids(n, adj, sub)

    monkeypatch.setattr(_kernels, "scc_ids", counting)
    sc_not_sb = glued(bidirected_complete(4), c3())
    for g in (fig1, fig2, sc_not_sb, single_arc()):
        g = _fresh(g)
        whole.clear()
        sg.analyze(g)
        # One call gives the verdict and one starts the SBC
        # decomposition; arc probes pass a modified adjacency, so they
        # do not count.
        assert sum(adj is g.out_adj for adj in whole) == 2


def _patch_split(monkeypatch, wrap):
    """Replace `resilience._split`, in both modules that call it, by
    wrap(original)."""
    split = wrap(resilience._split)
    monkeypatch.setattr(resilience, "_split", split)
    monkeypatch.setattr(blocks, "_split", split)


def _count_cut_probes(monkeypatch, g):
    """Count, per deleted arc or vertex d of g, the `scc_ids` calls that
    split g - d: those made inside `resilience._split` for d, and those
    over all that remains of g - d (g's adjacency with one vertex left
    out of the subset, or with one arc dropped from one row over all n
    vertices).  The call that `_strong_cuts` makes over every vertex but
    0 is of the first kind and counts for vertex 0.  The refinement
    inside a probe passes smaller subsets (a block of H - z has at most
    n - 2 vertices, one of H - e at most n - 1), so it is not counted."""
    probes = collections.Counter()
    splitting = []
    scc_ids = _kernels.scc_ids

    def wrap(original):
        def split(h, d):
            splitting.append(d)
            try:
                return original(h, d)
            finally:
                splitting.pop()

        return split

    def counting(n, adj, sub):
        if splitting:
            probes[splitting[-1]] += 1
        elif adj is g.out_adj:
            if len(sub) == n - 1:
                (z,) = set(range(n)) - set(sub)
                probes[z] += 1
        elif len(sub) == n:
            (tail,) = [t for t in range(n) if adj[t] is not g.out_adj[t]]
            (head,) = set(g.out_adj[tail]) - set(adj[tail])
            probes[(tail, head)] += 1
        return scc_ids(n, adj, sub)

    _patch_split(monkeypatch, wrap)
    monkeypatch.setattr(_kernels, "scc_ids", counting)
    return probes


def _fine_first(g):
    sg.two_edge_blocks(g)
    sg.two_strong_blocks(g)
    sg.two_edge_biconnected_blocks(g)
    sg.two_strong_biconnected_blocks(g)


@pytest.mark.parametrize("run", [sg.analyze, _fine_first])
def test_each_strong_cut_is_split_once(monkeypatch, fig1, run):
    # Each graph has b-cuts that are not strong cuts; those cost no SCC
    # call, as their deletion leaves one SCC.  Vertex 0 costs the one
    # call that finds whether it is a strong cut, whether it is or not.
    for g in (fig1, twin_bridge_graph(), ear_graph(34, 40)):
        g = _fresh(g)
        probes = _count_cut_probes(monkeypatch, g)
        run(g)
        monkeypatch.undo()
        cuts = sg.cut_report(g)
        weak = set(cuts.b_bridges + cuts.b_articulation_points) - set(
            cuts.strong_bridges + cuts.strong_articulation_points
        )
        assert weak
        strong = cuts.strong_bridges + cuts.strong_articulation_points
        assert probes == collections.Counter({*strong, 0})


@pytest.mark.parametrize(
    "run", [sg.two_edge_biconnected_blocks, sg.two_edge_blocks]
)
def test_arc_families_split_no_vertex(monkeypatch, fig1, run):
    for g in (fig1, twin_bridge_graph(), ear_graph(34, 40)):
        g = _fresh(g)
        assert _strong_cuts(g)[1]
        masked = []
        scc_ids = _kernels.scc_ids

        def counting(n, adj, sub):
            # A vertex probe passes g's own rows over a subset; an arc
            # probe and its refinement pass rows with the arc dropped.
            if adj is g.out_adj and len(sub) != n:
                masked.append(sub)
            return scc_ids(n, adj, sub)

        monkeypatch.setattr(_kernels, "scc_ids", counting)
        run(g)
        monkeypatch.undo()
        assert masked == []


def test_shared_splits_serve_graphs_that_are_not_sb(monkeypatch):
    g = _fresh(glued(ear_graph(34, 40), ear_graph(3, 20)))
    probes = _count_cut_probes(monkeypatch, g)
    report = sg.analyze(g)
    monkeypatch.undo()
    cuts = _strong_cuts(g)
    assert not report.strongly_biconnected
    assert probes == collections.Counter({*cuts[0], *cuts[1], 0})
    assert report.blocks_2e == [list(b) for b in reference_two_edge_blocks(g)]
    assert report.blocks_2s == [
        list(b) for b in reference_two_strong_blocks(g)
    ]


def test_no_split_visits_vertex_0(monkeypatch, fig1, fig2):
    # Vertex 0 lies in the SCC that every split leaves out, and a deleted
    # vertex is in no SCC.
    calls = []
    scc_ids = _kernels.scc_ids

    def wrap(original):
        def split(g, d):
            def recording(n, adj, sub):
                calls.append((d, sub))
                return scc_ids(n, adj, sub)

            with monkeypatch.context() as m:
                m.setattr(_kernels, "scc_ids", recording)
                return original(g, d)

        return split

    _patch_split(monkeypatch, wrap)
    shapes = [fig1, fig2, twin_bridge_graph(), ear_graph(34, 40)]
    shapes += [directed_cycle(6), glued(ear_graph(3, 20), ear_graph(34, 40))]
    for g in shapes:
        sg.analyze(_fresh(g))
    assert calls
    for d, sub in calls:
        assert 0 not in sub
        assert isinstance(d, tuple) or d not in sub


def test_a_memoized_function_keeps_one_entry_per_argument(
    monkeypatch, fig1
):
    g = _fresh(fig1)
    # Finding the strong cuts splits vertex 0 on the way.
    arcs, points = _strong_cuts(g)
    arc, point = arcs[0], next(z for z in points if z != 0)
    kept = set(g._memo)
    calls = []
    scc_ids = _kernels.scc_ids

    def counting(n, adj, sub):
        calls.append(sub)
        return scc_ids(n, adj, sub)

    monkeypatch.setattr(_kernels, "scc_ids", counting)
    first = resilience._split(g, arc)
    assert resilience._split(g, arc) is first
    assert len(calls) == 1
    second = resilience._split(g, point)
    assert len(calls) == 2
    assert resilience._split(g, arc) is first
    assert resilience._split(g, point) is second
    assert len(calls) == 2
    assert set(g._memo) - kept == {("_split", (arc,)), ("_split", (point,))}


def test_copies_keep_nothing_in_common(fig1):
    g = _fresh(fig1)
    assert sg.cut_report(g) is sg.cut_report(g)
    h = _fresh(g)
    assert sg.cut_report(h) is not sg.cut_report(g)
    assert sg.cut_report(h) == sg.cut_report(g)
    assert sg.underlying(h) is not sg.underlying(g)
    arc = _strong_cuts(g)[0][0]
    assert resilience._split(h, arc) is not resilience._split(g, arc)
    assert resilience._split(h, arc) == resilience._split(g, arc)


def test_threads_filling_one_graph_agree(fig1):
    expected = sg.emit_report(_fresh(fig1))
    g = _fresh(fig1)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(sg.emit_report(g)))
        for _ in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4

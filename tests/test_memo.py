"""Every fact derived from a graph alone is computed once and kept on the
graph, so the families of one graph share one cut pass and one verdict
of each kind, whichever of them is called and in whatever order."""

import collections
import gc
import sys
import threading

import pytest

import sbgraph as sg
from sbgraph import _kernels, blocks, cli, resilience
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


def _count_root_refinements(monkeypatch, g):
    """Every walk over the class of vertex 0 left by a probe of g
    (`resilience._root_split`), as a pair (kernel, gone) in call order:
    the kernel, "biconnected" or "bcc", and the set `gone` the class
    leaves out.  Each must read g's own underlying rows."""
    und_adj = sg.underlying(g).adj
    rooting = []
    refined = []
    root_split = resilience._root_split
    bcc = _kernels.bcc
    biconnected = _kernels.biconnected

    def rooted(h, gone):
        rooting.append(gone if h is g else None)
        try:
            return root_split(h, gone)
        finally:
            rooting.pop()

    def counting_bcc(n, adj, sub):
        # The verdict on g, which a refinement may ask first, walks all
        # of V and is no refinement.
        gone = rooting[-1] if rooting else None
        if gone is not None and len(sub) == n - len(gone) < n:
            assert adj is und_adj
            assert gone.isdisjoint(sub)
            refined.append(("bcc", gone))
        return bcc(n, adj, sub)

    def counting_biconnected(n, adj, gone):
        if rooting and rooting[-1] is not None:
            assert adj is und_adj
            assert gone == rooting[-1]
            refined.append(("biconnected", gone))
        return biconnected(n, adj, gone)

    monkeypatch.setattr(resilience, "_root_split", rooted)
    monkeypatch.setattr(_kernels, "bcc", counting_bcc)
    monkeypatch.setattr(_kernels, "biconnected", counting_biconnected)
    return refined


@pytest.mark.parametrize("run", [_each_family, sg.analyze])
def test_one_cut_sweep_per_graph(monkeypatch, fig1, run):
    g = _fresh(fig1)
    passes = []
    triconnected = resilience.triconnected_components

    def counting_pass(n, edges):
        passes.append(n)
        return triconnected(n, edges)

    monkeypatch.setattr(resilience, "triconnected_components", counting_pass)
    refined = _count_root_refinements(monkeypatch, g)
    run(g)
    monkeypatch.undo()
    cuts = sg.cut_report(g)
    assert passes == [g.n]
    # One vertex masked out of H: the probes of the b-articulation points
    # whose deletion leaves one SCC, which the separation pairs do not
    # certify.  The others split first.
    masked = [gone for _, gone in refined if len(gone) == 1]
    weak = set(cuts.b_articulation_points) - set(
        cuts.strong_articulation_points
    )
    assert sorted(masked) == sorted(frozenset([z]) for z in weak)
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
        # One whole-graph pass gives the verdict and starts the SBC
        # decomposition; arc probes pass a modified adjacency, so they
        # do not count.
        assert sum(adj is g.out_adj for adj in whole) == 1


def _kernel_calls(monkeypatch):
    """Wrap both kernels; each call appends the length of its vertex
    list to its kernel's entry."""
    calls = {"scc_ids": [], "bcc": []}
    for name, sizes in calls.items():
        def recording(n, adj, sub, kernel=getattr(_kernels, name),
                      sizes=sizes):
            sizes.append(len(sub))
            return kernel(n, adj, sub)

        monkeypatch.setattr(_kernels, name, recording)
    return calls


def test_check_walks_g_and_its_underlying_graph_once(
    monkeypatch, capsys, fig1_path
):
    calls = _kernel_calls(monkeypatch)
    assert cli.main(["check", fig1_path]) == 0
    assert calls == {"scc_ids": [16], "bcc": [16]}


def test_block_pass_is_kept_on_the_undirected_graph(monkeypatch):
    u = sg.UndirectedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    calls = _kernel_calls(monkeypatch)
    assert sg.undirected_blocks(u).articulation_points == (2,)
    assert not sg.is_biconnected(u)
    assert calls == {"scc_ids": [], "bcc": [4]}


def _patch(monkeypatch, name, wrap):
    """Replace the `resilience` function `name`, in both modules that call
    it, by wrap(original)."""
    fn = wrap(getattr(resilience, name))
    monkeypatch.setattr(resilience, name, fn)
    monkeypatch.setattr(blocks, name, fn)


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

    _patch(monkeypatch, "_split", wrap)
    monkeypatch.setattr(_kernels, "scc_ids", counting)
    return probes


def _split_strong_cuts(g):
    """The strong cuts of g whose split makes an SCC call, those whose
    region has two or more vertices, and vertex 0, as a Counter of one
    call each.  A one-vertex region is its own class."""
    arcs, points = _strong_cuts(g)
    wide = [d for d in arcs + points if len(resilience._cut_region(g, d)) > 1]
    return collections.Counter({0, *wide})


def _fine_first(g):
    sg.two_edge_blocks(g)
    sg.two_strong_blocks(g)
    sg.two_edge_biconnected_blocks(g)
    sg.two_strong_biconnected_blocks(g)


@pytest.mark.parametrize("run", [sg.analyze, _fine_first])
def test_each_strong_cut_is_split_once(monkeypatch, fig1, run):
    # Each graph has b-cuts that are not strong cuts; those cost no SCC
    # call, as their deletion leaves one SCC, and neither does a strong
    # cut whose region is one vertex.  Vertex 0 costs the one call that
    # finds whether it is a strong cut, whether it is or not.
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
        assert probes == _split_strong_cuts(g)


def test_a_one_vertex_region_makes_no_scc_call(monkeypatch, fig1):
    calls = []
    scc_ids = _kernels.scc_ids

    def counting(n, adj, sub):
        calls.append(sub)
        return scc_ids(n, adj, sub)

    singles = 0
    for g in (fig1, twin_bridge_graph(), ear_graph(34, 40)):
        g = _fresh(g)
        arcs, points = _strong_cuts(g)
        monkeypatch.setattr(_kernels, "scc_ids", counting)
        for d in arcs + points:
            region = resilience._cut_region(g, d)
            if len(region) == 1:
                singles += 1
                assert resilience._split(g, d) == (tuple(region),)
        monkeypatch.undo()
        assert calls == []
    assert singles


@pytest.mark.parametrize(
    "backend", ["pure", pytest.param("c", marks=pytest.mark.needs_compiled)]
)
def test_kept_splits_leave_the_collector(backend):
    # A split is kept for the graph's lifetime, one per strong cut, so a
    # list of them would be walked by every full collection.  A tuple of
    # untracked items is untracked by the next collection that sees it,
    # so two collections reach the outer tuple of each split.
    with _kernels.use_backend(backend):
        g = directed_cycle(300)
        sg.two_edge_blocks(g)
    gc.collect()
    gc.collect()
    splits = [v for (name, _), v in g._memo.items() if name == "_split"]
    assert len(splits) == 301
    assert not any(gc.is_tracked(split) for split in splits)


@pytest.mark.parametrize(
    "run", [sg.two_edge_biconnected_blocks, sg.two_edge_blocks]
)
def test_arc_families_split_no_vertex(monkeypatch, fig1, run):
    # Every split and every SBC probe names its deletion, so an arc-only
    # family must name arcs alone.
    for g in (fig1, twin_bridge_graph(), ear_graph(34, 40)):
        g = _fresh(g)
        assert _strong_cuts(g)[1]
        probed = []

        def wrap(original):
            def probe(h, d):
                probed.append(d)
                return original(h, d)

            return probe

        for name in ("_split", "_sbc_parts"):
            _patch(monkeypatch, name, wrap)
        run(g)
        monkeypatch.undo()
        assert probed
        assert all(isinstance(d, tuple) for d in probed)


def test_each_root_class_is_refined_once(monkeypatch, fig1):
    # The class of vertex 0 left by a probe is refined on g's own rows,
    # once per set of vertices it leaves out, whichever probes share it.
    for g in (fig1, ear_graph(34, 40)):
        g = _fresh(g)
        probed = []
        sbc_parts = resilience._sbc_parts

        def probe(h, d):
            probed.append(d)
            return sbc_parts(h, d)

        monkeypatch.setattr(blocks, "_sbc_parts", probe)
        refining = _count_root_refinements(monkeypatch, g)
        sg.analyze(g)
        monkeypatch.undo()
        refined = collections.Counter(
            (kernel, frozenset(range(g.n)) - gone) for kernel, gone in refining
        )
        roots = collections.Counter()
        for d in probed:
            gone = {v for c in resilience._split(g, d) for v in c}
            if not isinstance(d, tuple):
                gone.add(d)
            if 0 < len(gone) < g.n:
                roots[frozenset(range(g.n)) - gone] += 1
        assert max(roots.values()) > 1
        assert {root for _, root in refined} <= set(roots)
        assert set(refined.values()) == {1}


def test_root_class_walks_once_unless_it_splits(monkeypatch, fig1, fig2):
    # A class that stays one strongly biconnected set is walked once, by
    # the early-exit kernel, or not at all when it leaves out one vertex
    # in no separation pair; a class that splits pays one `bcc`, which
    # lists its blocks.  fig2 and the ear graph have classes that split.
    splits = 0
    for g in (fig1, ear_graph(34, 40), fig2):
        g = _fresh(g)
        refining = _count_root_refinements(monkeypatch, g)
        sg.analyze(g)
        monkeypatch.undo()
        walks = collections.defaultdict(list)
        for kernel, gone in refining:
            walks[gone].append(kernel)
        for gone, kernels in walks.items():
            if resilience._root_split(g, gone):
                splits += 1
                assert kernels.count("bcc") == 1, (gone, kernels)
            else:
                assert kernels == ["biconnected"], (gone, kernels)
    assert splits


def test_shared_splits_serve_graphs_that_are_not_sb(monkeypatch):
    g = _fresh(glued(ear_graph(34, 40), ear_graph(3, 20)))
    probes = _count_cut_probes(monkeypatch, g)
    report = sg.analyze(g)
    monkeypatch.undo()
    assert not report.strongly_biconnected
    assert probes == _split_strong_cuts(g)
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

    _patch(monkeypatch, "_split", wrap)
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

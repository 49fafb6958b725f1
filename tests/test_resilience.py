import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbgraph as sg
from sbgraph import _kernels, resilience
from sbgraph.sbc import _finish
from helpers import (
    bidirected,
    bidirected_complete,
    bidirected_cycle,
    c3,
    digraphs,
    directed_cycle,
    ear_graph,
    glued,
    one_based,
    perfbench_gen,
    random_sb_corpus,
    reference_components_2esb,
    reference_components_2vsb,
    root_cut_graph,
    run_cli_capped,
    single_arc,
    strongly_connected_digraphs,
    two_triangles,
)

# Frozen result of the per-arc recheck on the fig1 fixture (0-based ids).
FIG1_B_BRIDGES = [
    (0, 14), (1, 11), (1, 14), (2, 13), (3, 0), (3, 1), (3, 2), (3, 5),
    (4, 3), (5, 14), (6, 3), (7, 3), (8, 6), (9, 4), (14, 7), (14, 15),
    (15, 3),
]


def test_b_bridges_cycle():
    assert sg.b_bridges(c3()) == [(0, 1), (1, 2), (2, 0)]


def test_b_bridges_complete():
    assert sg.b_bridges(bidirected_complete(4)) == []


def test_b_bridges_fig1(fig1):
    bridges = sg.b_bridges(fig1)
    assert bridges == FIG1_B_BRIDGES
    assert (2 - 1, 15 - 1) in bridges  # the arc labeled (2, 15) 1-based


def test_b_bridges_requires_strongly_biconnected():
    with pytest.raises(sg.NotStronglyBiconnectedError):
        sg.b_bridges(single_arc())
    with pytest.raises(sg.NotStronglyBiconnectedError):
        sg.b_articulation_points(two_triangles())


def test_b_bridges_definitional_recheck():
    for g in random_sb_corpus(25, seed_base=40):
        bridges = set(sg.b_bridges(g))
        for e in g.edges:
            broken = not sg.is_strongly_biconnected(sg.remove_edge(g, e))
            assert (e in bridges) == broken


def test_strong_bridges_are_b_bridges():
    for g in random_sb_corpus(25, seed_base=140):
        bridges = set(sg.b_bridges(g))
        for e in g.edges:
            if not sg.is_strongly_connected(sg.remove_edge(g, e)):
                assert e in bridges


def test_non_b_bridge_preserves_co_membership():
    for g in random_sb_corpus(20, seed_base=240):
        bridges = set(sg.b_bridges(g))
        for e in g.edges:
            if e in bridges:
                continue
            d = sg.strongly_biconnected_components(sg.remove_edge(g, e))
            for v in range(g.n):
                for w in range(v):
                    assert sg.same_sbc(d, v, w)


def _reached_from_0(succ, tail, head):
    """Vertices that vertex 0 reaches along `succ` without the arc
    (tail, head)."""
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in succ[v]:
            if w not in seen and (v, w) != (tail, head):
                seen.add(w)
                stack.append(w)
    return seen


@settings(deadline=None)
@given(strongly_connected_digraphs(min_n=2))
def test_flow_bridge_heads_match_their_definition(g):
    # (idom(v), v) is a flow-graph bridge exactly when deleting it leaves
    # v unreachable from 0, in the forward and in the reverse flow graph.
    for succ, pred in ((g.out_adj, g.in_adj), (g.in_adj, g.out_adj)):
        tree = resilience._DominatorTree(succ, pred)
        heads = set()
        for v in range(1, g.n):
            parent = tree.idom[v]
            if v in succ[parent]:
                if v not in _reached_from_0(succ, parent, v):
                    heads.add(v)
        assert tree.heads == heads


def _unreached_without(succ, v):
    """Vertices that vertex 0 does not reach along `succ` once v is
    deleted (v itself included)."""
    seen = [False] * len(succ)
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for w in succ[u]:
            if w != v and not seen[w]:
                seen[w] = True
                stack.append(w)
    return {w for w, reached in enumerate(seen) if not reached}


def _assert_idoms_match_their_definition(g):
    # v dominates w != v exactly when deleting v leaves w unreachable from
    # 0, forward and on the reverse graph: the idom tree's proper
    # descendants of v are exactly those w.
    for succ, pred in ((g.out_adj, g.in_adj), (g.in_adj, g.out_adj)):
        idom = resilience._DominatorTree(succ, pred).idom
        assert idom[0] == 0
        below = [set() for _ in range(g.n)]
        for w in range(1, g.n):
            v = idom[w]
            below[v].add(w)
            while v:
                v = idom[v]
                below[v].add(w)
        assert below[0] == set(range(1, g.n))
        for v in range(1, g.n):
            assert below[v] == _unreached_without(succ, v) - {v}


@settings(deadline=None)
@given(strongly_connected_digraphs(max_n=12))
def test_idoms_match_their_definition(g):
    _assert_idoms_match_their_definition(g)


def test_idoms_match_their_definition_on_deep_trees():
    # A directed cycle has a dominator path through every vertex, and a
    # long-ear graph long chains: both compress long forest paths.
    _assert_idoms_match_their_definition(directed_cycle(300))
    arcs = perfbench_gen().ear_graph(random.Random(7), 500, 1150, 3, 8)
    _assert_idoms_match_their_definition(sg.build_digraph(500, arcs))


def test_b_articulation_points_cycle():
    assert sg.b_articulation_points(c3()) == (0, 1, 2)


def test_b_articulation_points_complete():
    assert sg.b_articulation_points(bidirected_complete(4)) == ()


def test_b_articulation_points_fig2(fig2):
    assert 4 - 1 in sg.b_articulation_points(fig2)


def test_cut_report(fig1):
    report = sg.cut_report(fig1)
    assert report.b_bridges == tuple(FIG1_B_BRIDGES)
    assert report.b_articulation_points == sg.b_articulation_points(fig1)


def test_is_2_edge_strongly_biconnected():
    assert sg.is_2_edge_strongly_biconnected(bidirected_complete(4))
    assert not sg.is_2_edge_strongly_biconnected(c3())
    assert not sg.is_2_edge_strongly_biconnected(single_arc())


def test_fig1_core_cluster_is_2esb(fig1):
    h, _ = sg.induced_subgraph(fig1, one_based(9, 10, 11, 12, 13, 14))
    assert sg.is_2_edge_strongly_biconnected(h)


def test_is_2_vertex_strongly_biconnected():
    assert sg.is_2_vertex_strongly_biconnected(bidirected_complete(4))
    assert not sg.is_2_vertex_strongly_biconnected(c3())
    assert not sg.is_2_vertex_strongly_biconnected(directed_cycle(4))


def test_components_2esb_fig1(fig1):
    comps = sg.components_2esb(fig1)
    assert comps == [one_based(9, 10, 11, 12, 13, 14)]


def test_components_2esb_trivial():
    assert sg.components_2esb(c3()) == []
    assert sg.components_2esb(bidirected_complete(4)) == [(0, 1, 2, 3)]


def test_components_2vsb_trivial():
    assert sg.components_2vsb(bidirected_complete(4)) == [(0, 1, 2, 3)]
    assert sg.components_2vsb(c3()) == []
    assert sg.components_2vsb(two_triangles()) == []


def _k4_ring(k, links):
    """k bidirected K4s on {4i, ..., 4i + 3}, joined by the arcs `links`."""
    k4 = bidirected_complete(4).edges
    edges = [(t + 4 * i, h + 4 * i) for i in range(k) for t, h in k4]
    return sg.build_digraph(4 * k, edges + links)


@pytest.mark.parametrize(
    "k,links", [(2, [(0, 4), (5, 1)]), (3, [(0, 4), (5, 8), (9, 1)])]
)
def test_components_split_at_b_bridges(k, links):
    # The links are the only b-bridges of a strongly biconnected graph, so
    # the 2esb search must delete them and keep each K4 it leaves.
    g = _k4_ring(k, links)
    assert sg.is_strongly_biconnected(g)
    assert sg.b_bridges(g) == sorted(links)
    k4s = [tuple(range(4 * i, 4 * i + 4)) for i in range(k)]
    assert sg.components_2esb(g) == k4s == reference_components_2esb(g)
    assert sg.components_2vsb(g) == k4s == reference_components_2vsb(g)


def test_split_at_b_articulation_point_matches_a_copy(fig1, fig2):
    """The 2vsb step probes the least b-articulation point x in place and
    returns, per SBC D of two or more vertices of a copy of h - x, the
    subgraph of h induced by x and D.  The corpus has x = 0, whose region
    is every other vertex, and an x that is not a strong articulation
    point, whose region is empty."""
    corpus = [fig1, fig2] + random_sb_corpus(30, seed_base=1000, nmax=10)
    corpus += [ear_graph(seed, 30) for seed in range(4)]
    seen = set()
    for h in corpus:
        cuts = sg.cut_report(h)
        children = resilience._split_at_b_articulation_point(h)
        if not cuts.b_articulation_points:
            assert children is None
            continue
        x = cuts.b_articulation_points[0]
        copy, old_to_new = sg.remove_vertex(h, x)
        back = sorted(old_to_new)
        expected = [
            sg.induced_subgraph(h, (x, *(back[v] for v in c)))
            for c in sg.strongly_biconnected_components(copy).components
            if len(c) >= 2
        ]
        assert sorted(children, key=lambda c: sorted(c[1])) == sorted(
            expected, key=lambda c: sorted(c[1])
        )
        if x == 0:
            seen.add("root")
        elif not resilience._cut_region(h, x):
            assert x not in cuts.strong_articulation_points
            seen.add("empty region")
    assert seen == {"root", "empty region"}


def test_root_split_certifies_vertices_in_no_separation_pair(
    monkeypatch, fig1
):
    """V - x, for an x that is no strong articulation point, is one SBC,
    listed as no parts, with no `bcc` call over it exactly when x lies in
    no separation pair of H; otherwise its parts are those of a copy of
    g - x."""
    g = sg.build_digraph(fig1.n, fig1.edges)
    separating = resilience._separations(g)[0]
    strong = sg.cut_report(g).strong_articulation_points
    visited = []
    und_adj = sg.underlying(g).adj
    bcc = _kernels.bcc

    def recording(n, adj, sub):
        if adj is und_adj:
            visited.append(frozenset(sub))
        return bcc(n, adj, sub)

    monkeypatch.setattr(_kernels, "bcc", recording)
    kinds = set()
    for x in range(1, g.n):
        if x in strong:
            continue
        root = frozenset(range(g.n)) - {x}
        parts = resilience._root_split(g, frozenset([x]))
        copy, old_to_new = sg.remove_vertex(g, x)
        back = sorted(old_to_new)
        expected = tuple(
            tuple(back[v] for v in c)
            for c in sg.strongly_biconnected_components(copy).components
        )
        if x in separating:
            assert root in visited
            assert _finish(parts).components == expected
        else:
            assert root not in visited
            assert parts == () and expected == (tuple(sorted(root)),)
        kinds.add(x in separating)
    assert kinds == {True, False}


def test_components_stops_at_a_split_that_keeps_its_set():
    # A split step that hands back its own set would be searched again
    # forever; the search names the set and stops instead.
    with pytest.raises(RuntimeError, match=r"\[0, 1, 2, 3\] kept all"):
        resilience._components(
            bidirected_complete(4), lambda h: [(h, range(h.n))]
        )


def test_root_split_certifies_every_vertex_at_n3(monkeypatch):
    """On a strongly biconnected graph of three vertices H is a triangle,
    so H - x is K2 for every x, and `_root_split` lists no part, with no
    kernel call: `_separations` lists no vertex there."""
    def refuse(*args):
        raise AssertionError("no kernel call expected")

    arcs = [(u, v) for u in range(3) for v in range(3) if u != v]
    graphs = [
        g
        for mask in range(1, 1 << len(arcs))
        for g in [sg.build_digraph(3, [a for i, a in enumerate(arcs)
                                       if mask >> i & 1])]
        if sg.is_strongly_biconnected(g)
    ]
    assert len(graphs) == 15
    monkeypatch.setattr(_kernels, "biconnected", refuse)
    monkeypatch.setattr(_kernels, "bcc", refuse)
    for g in graphs:
        for x in range(3):
            assert resilience._root_split(g, frozenset([x])) == ()


@settings(deadline=None, max_examples=200)
@given(st.integers(3, 10), st.integers(0, 10**6), st.data())
def test_b_bridges_that_are_no_strong_bridges_have_no_twin(n, seed, data):
    """`_sbc_parts` takes an arc that is no strong cut out of H whole,
    twin or not: it relies on every such b-bridge having no antiparallel
    twin.  Strongly biconnected ear graphs with short ears, so H has
    S-nodes, and reverse arcs added at random, so twins are common."""
    g = ear_graph(seed, n, ears=(1, 3))
    twins = data.draw(st.lists(st.sampled_from(g.edges), unique=True))
    g = sg.build_digraph(g.n, set(g.edges) | {(h, t) for t, h in twins})
    report = sg.cut_report(g)
    for tail, head in set(report.b_bridges) - set(report.strong_bridges):
        assert not g.has_edge(head, tail)


def test_root_split_refines_two_vertex_sets():
    # Neither vertex of the set lies in a separation pair, so no
    # one-vertex certificate may stand in for the refinement.
    g = root_cut_graph()
    assert sg.is_strongly_biconnected(g)
    assert not {1, 5} & resilience._separations(g)[0]
    assert resilience._split(g, 5) == ((1,),)
    parts = resilience._root_split(g, frozenset([1, 5]))
    assert parts != ()
    assert _finish(parts).components == ((0, 2), (2, 4), (3, 4))
    assert _finish(resilience._sbc_parts(g, 5)).components == (
        (0, 2), (1,), (2, 4), (3, 4)
    )


def test_components_2vsb_fig1(fig1):
    assert sg.components_2vsb(fig1) == [
        one_based(9, 10, 11, 12, 13, 14)
    ]


def test_peeling_keeps_vertices_with_two_neighbours_each_way():
    """The bidirected triangle, each vertex with exactly two in- and two
    out-neighbours, is 2esb and 2vsb and survives the peel; a directed
    ear hung on it peels away, one vertex after the other."""
    k3 = bidirected_complete(3)
    assert sg.components_2esb(k3) == [(0, 1, 2)]
    assert sg.components_2vsb(k3) == [(0, 1, 2)]
    g = sg.build_digraph(5, [*k3.edges, (0, 3), (3, 4), (4, 1)])
    assert resilience._peeled(g) == [0, 1, 2]
    assert sg.components_2vsb(g) == [(0, 1, 2)]


def test_search_skips_a_peeled_class_of_one_vertex():
    """Vertex 3, between two bidirected triangles, keeps two in- and two
    out-neighbours and survives the peel, but its SCC class is {3} alone:
    the search passes over it and keeps the triangles."""
    k3 = bidirected_complete(3).edges
    g = sg.build_digraph(
        7,
        [*k3, *((t + 4, h + 4) for t, h in k3), (0, 3), (1, 3), (3, 4), (3, 5)],
    )
    assert 3 in resilience._peeled(g)
    assert (3,) in sg.strongly_connected_components(g)
    triangles = [(0, 1, 2), (4, 5, 6)]
    assert sg.components_2esb(g) == triangles == reference_components_2esb(g)
    assert sg.components_2vsb(g) == triangles == reference_components_2vsb(g)


def test_components_overlap_and_edge_bounds():
    for g in random_sb_corpus(30, seed_base=340):
        esb = sg.components_2esb(g)
        for i in range(len(esb)):
            for j in range(i):
                assert len(set(esb[i]) & set(esb[j])) <= 1
        for c in sg.components_2vsb(g):
            h, _ = sg.induced_subgraph(g, c)
            assert h.m >= 2 * len(c)


def _assert_components_match_reference(g):
    assert sg.components_2esb(g) == reference_components_2esb(g)
    assert sg.components_2vsb(g) == reference_components_2vsb(g)


@settings(deadline=None)
@given(digraphs(max_n=8))
def test_components_match_reference_on_draws(g):
    _assert_components_match_reference(g)


def test_components_match_reference_on_corpus():
    for g in random_sb_corpus(40, seed_base=440, nmax=10):
        _assert_components_match_reference(g)


def test_components_match_reference_on_fixtures_and_non_sb(fig1, fig2):
    sc_not_sb = [
        glued(bidirected_complete(4), c3()),
        glued(bidirected_complete(4), bidirected_complete(5)),
        glued(ear_graph(7, 7), ear_graph(8, 6)),
    ]
    not_sc = [
        single_arc(),
        sg.build_digraph(7, [*bidirected_complete(4).edges, (3, 4), (5, 6)]),
        sg.build_digraph(8, [*two_triangles().edges, (5, 6), (6, 7), (7, 5)]),
    ]
    for g in [fig1, fig2, *sc_not_sb, *not_sc]:
        _assert_components_match_reference(g)
    # Glued K4 and K5 keep both sides; K4 with arcs out of it keeps K4.
    assert sg.components_2esb(sc_not_sb[1]) == [(0, 1, 2, 3), (3, 4, 5, 6, 7)]
    assert sg.components_2vsb(not_sc[1]) == [(0, 1, 2, 3)]


# Sets each family searches on the three graphs of the test below, per
# seed: (short-ear 2esb, 2vsb, long-ear 2esb, 2vsb, bidirected 2esb, 2vsb).
# Peeling leaves the short-ear core one 2esb and 2vsb set, searched at
# once, and peels the long-ear graphs to nothing.  In the bidirected
# graphs nothing peels: the 2vsb search splits at b-articulation points
# alone.
SEARCHED = {
    0: (1, 1, 0, 0, 1, 47),
    1: (1, 1, 0, 0, 1, 44),
    2: (1, 1, 0, 0, 1, 38),
}


@pytest.mark.parametrize("seed", range(3))
def test_component_iteration_searches_at_most_n_sets(monkeypatch, seed):
    """Each set the iteration searches reaches `cut_report` once.  On
    seeded short-ear, long-ear and bidirected long-ear graphs with n = 200
    both families search at most n sets: 2esb splits at most m times by
    its argument, and the 2vsb count, which has no proved bound, is
    measured here and pinned in SEARCHED."""
    searched = []
    report = resilience.cut_report

    def counting(h):
        searched.append(h.n)
        return report(h)

    monkeypatch.setattr(resilience, "cut_report", counting)
    n = 200
    counts = []
    for g in (
        ear_graph(seed, n, ears=(1, 2), chords=3 * n),
        ear_graph(seed, n, ears=(3, 8)),
        bidirected(ear_graph(seed, n, ears=(3, 8))),
    ):
        for components in (sg.components_2esb, sg.components_2vsb):
            searched.clear()
            components(g)
            assert len(searched) <= n
            counts.append(len(searched))
    assert tuple(counts) == SEARCHED[seed]


@pytest.mark.parametrize(
    "kind,blocks", [("2esb", [list(range(3000))]), ("2vsb", [])]
)
def test_components_of_long_bidirected_cycle_via_cli(kind, blocks):
    """A bidirected cycle with n = 3000 runs through `blocks --kind` with
    no guard, no RecursionError and no MemoryError: the iteration runs on
    explicit stacks and searches at most n sets (here one), under the
    capped address space of run_cli_capped."""
    text = sg.emit_edge_list(bidirected_cycle(3000))
    proc = run_cli_capped(["blocks", "--kind", kind], stdin=text)
    assert proc.returncode == 0, proc.stderr
    assert "RecursionError" not in proc.stderr
    assert "MemoryError" not in proc.stderr
    assert json.loads(proc.stdout)["blocks"] == blocks

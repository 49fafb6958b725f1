"""The cut sets of resilience match their definitions, and the probe sets
of resilience and blocks give the same answers as probing every single
deletion."""

import numpy as np
import pytest
from hypothesis import given

import sbgraph as sg
from sbgraph import _kernels
from sbgraph.connectivity import canonical_family, scc_classes
from sbgraph.resilience import _cut_region, _sbc_parts, _split, _strong_cuts
from sbgraph.sbc import _finish
from helpers import (
    bidirected,
    bidirected_complete,
    bidirected_cycle,
    c3,
    dense,
    directed_cycle,
    ear_graph,
    glued,
    max_cliques_of_sets,
    neighbour_sets,
    random_sb_corpus,
    reference_b_articulation_points,
    reference_b_bridges,
    reference_edge_relation,
    reference_strong_articulation_points,
    reference_strong_bridges,
    reference_two_edge_blocks,
    reference_two_strong_blocks,
    reference_vertex_relation,
    root_cut_graph,
    strongly_connected_digraphs,
    twin_bridge_graph,
    two_triangles,
)


def _sc_not_sb_shapes():
    corpus = random_sb_corpus(6, seed_base=700)
    shapes = [two_triangles(), glued(bidirected_complete(4), c3())]
    shapes += [glued(a, b) for a, b in zip(corpus, corpus[1:])]
    shapes.append(glued(glued(corpus[0], c3()), corpus[5]))
    return shapes


def test_glued_shapes_are_sc_not_sb():
    for g in _sc_not_sb_shapes():
        assert sg.is_strongly_connected(g)
        assert not sg.is_strongly_biconnected(g)


def _with_rest(g, d, parts):
    """The parts of a probe of g - d, each as a tuple, with its implicit
    part made explicit: every vertex in no listed part, d aside, first
    when it is not empty, then the listed parts.  For d's split, ordered
    by first member, these are the SCC classes of g - d in order."""
    listed = {v for c in parts for v in c}
    if not isinstance(d, tuple):
        listed.add(d)
    rest = tuple(v for v in range(g.n) if v not in listed)
    parts = [tuple(c) for c in parts]
    return [rest, *parts] if rest else parts


def _assert_probes_match_copies(g):
    """The masked probes on every arc and every vertex, not only the cuts:
    also on deletions that keep g strongly (bi)connected.  They agree with
    the decompositions of a copy of g - d, its ids mapped back to g's.
    The SBC probe returns raw sets; with its implicit part and finished,
    they are the decomposition.  It is checked where its precondition
    holds: g strongly biconnected, and an arc that is no strong cut with
    no antiparallel twin, as every b-bridge that is no strong bridge is
    (`test_b_bridges_that_are_no_strong_bridges_have_no_twin`)."""
    sb = sg.is_strongly_biconnected(g)
    # Deleting the only vertex of K1 leaves nothing to decompose.
    deletions = list(g.edges) + (list(range(g.n)) if g.n > 1 else [])
    for d in deletions:
        if isinstance(d, tuple):
            h, back = sg.remove_edge(g, d), range(g.n)
        else:
            h, old_to_new = sg.remove_vertex(g, d)
            back = sorted(old_to_new)
        assert _with_rest(g, d, _split(g, d)) == [
            tuple(back[v] for v in c)
            for c in sg.strongly_connected_components(h)
        ]
        twin = isinstance(d, tuple) and g.has_edge(d[1], d[0])
        if not sb or (twin and not _split(g, d)):
            continue
        assert _finish(_with_rest(g, d, _sbc_parts(g, d))).components == tuple(
            tuple(back[v] for v in c)
            for c in sg.strongly_biconnected_components(h).components
        )


def _assert_sc_families_match(g):
    _assert_probes_match_copies(g)
    assert _strong_cuts(g) == (
        reference_strong_bridges(g),
        reference_strong_articulation_points(g),
    )
    assert sg.two_edge_blocks(g) == reference_two_edge_blocks(g)
    assert sg.two_strong_blocks(g) == reference_two_strong_blocks(g)


def _assert_sb_families_match(g):
    bridges = reference_b_bridges(g)
    points = reference_b_articulation_points(g)
    assert sg.b_bridges(g) == bridges
    assert sg.b_articulation_points(g) == points
    assert sg.cut_report(g) == sg.CutReport(
        b_bridges=tuple(bridges),
        b_articulation_points=points,
        strong_bridges=reference_strong_bridges(g),
        strong_articulation_points=reference_strong_articulation_points(g),
    )
    edge_cells = reference_edge_relation(g)
    vertex_cells = reference_vertex_relation(g)
    assert np.array_equal(dense(sg.edge_relation(g)), edge_cells)
    assert np.array_equal(dense(sg.vertex_relation(g)), vertex_cells)
    # The blocks read off the probes are the maximal cliques of the
    # reference relations, which read no probe.
    assert sg.two_edge_biconnected_blocks(g) == canonical_family(
        max_cliques_of_sets(neighbour_sets(edge_cells))
    )
    assert sg.two_strong_biconnected_blocks(g) == canonical_family(
        max_cliques_of_sets(neighbour_sets(vertex_cells))
    )
    assert sg.is_2_edge_strongly_biconnected(g) == (g.n > 2 and not bridges)
    assert sg.is_2_vertex_strongly_biconnected(g) == (g.n > 2 and not points)


@given(strongly_connected_digraphs())
def test_filters_match_references_on_random_draws(g):
    _assert_sc_families_match(g)
    if sg.is_strongly_biconnected(g):
        _assert_sb_families_match(g)


@given(
    strongly_connected_digraphs(max_n=5), strongly_connected_digraphs(max_n=5)
)
def test_filters_match_references_on_random_glued_draws(a, b):
    _assert_sc_families_match(glued(a, b))


def test_filters_match_references_on_sc_not_sb_shapes():
    for g in _sc_not_sb_shapes():
        _assert_sc_families_match(g)


def _sb_corpus(fig1, fig2):
    # Every vertex probe of a bidirected cycle leaves one SCC, so
    # two_strong_blocks skips all of them.
    cycles = [bidirected_cycle(k) for k in (5, 7, 9)]
    small = [
        sg.build_digraph(1, []),
        sg.build_digraph(2, [(0, 1), (1, 0)]),
        c3(),
        directed_cycle(5),
    ]
    corpus = random_sb_corpus(12, seed_base=800, nmax=10)
    shapes = [fig1, fig2, twin_bridge_graph(), root_cut_graph()]
    return shapes + small + cycles + corpus


BACKENDS = ["pure", pytest.param("c", marks=pytest.mark.needs_compiled)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_filters_match_references_on_sb_corpus(backend, fig1, fig2):
    with _kernels.use_backend(backend):
        for g in _sb_corpus(fig1, fig2):
            # A fresh graph: nothing kept from a run on another backend.
            g = sg.build_digraph(g.n, g.edges)
            _assert_sc_families_match(g)
            _assert_sb_families_match(g)


def test_sbc_probes_leave_a_whole_root_class_implicit(fig1, fig2):
    """A probe lists only what its deletion separates.  When the class of
    vertex 0 in g - d, every vertex outside d's split with d aside, is
    one strongly biconnected set, no part of the SBC probe holds a
    vertex of it.  An arc that is no strong cut leaves that class all of
    V, holding the arc, and its probe lists every part, so it is not
    checked here."""
    whole = 0
    for g in _sb_corpus(fig1, fig2):
        deletions = list(g.edges) + (list(range(g.n)) if g.n > 1 else [])
        for d in deletions:
            gone = {v for c in _split(g, d) for v in c}
            if not isinstance(d, tuple):
                gone.add(d)
            root = [v for v in range(g.n) if v not in gone]
            if not gone or not root:
                continue
            h, _ = sg.induced_subgraph(g, root)
            if len(sg.strongly_biconnected_components(h).components) > 1:
                continue
            whole += 1
            listed = {v for c in _sbc_parts(g, d) for v in c}
            assert not listed.intersection(root), (g.n, g.edges, d)
    assert whole


def _assert_splits_match_masked_graph(g):
    """The split of every arc and every vertex d, read off its dominator
    region, equals the SCC classes of g with d masked out, over every
    vertex left.  The region is what lies outside the class of vertex 0:
    every vertex but 0 when d is 0, else empty exactly when d is not a
    strong cut."""
    arcs, points = _strong_cuts(g)
    cuts = set(arcs + points)
    for d in list(g.edges) + list(range(g.n)):
        if isinstance(d, tuple):
            adj = [
                tuple(w for w in row if (v, w) != d)
                for v, row in enumerate(g.out_adj)
            ]
            left = range(g.n)
        else:
            adj, left = g.out_adj, [v for v in range(g.n) if v != d]
        reference = scc_classes(g.n, adj, left)
        assert _with_rest(g, d, _split(g, d)) == [tuple(c) for c in reference]
        region = _cut_region(g, d)
        if d == 0:
            assert region == list(range(1, g.n))
        else:
            assert bool(region) == (d in cuts)
            assert region == sorted(set(left) - set(reference[0]))


def _glued_at_0(a, b):
    """glued(a, b) relabelled so that the shared vertex is 0."""
    g = glued(a, b)
    swap = {0: a.n - 1, a.n - 1: 0}
    return sg.build_digraph(
        g.n, [(swap.get(t, t), swap.get(h, h)) for t, h in g.edges]
    )


@given(strongly_connected_digraphs())
def test_splits_match_masked_graph_on_random_draws(g):
    _assert_splits_match_masked_graph(g)


def test_splits_match_masked_graph_on_shapes(fig1, fig2):
    # On a directed cycle every arc is both a forward and a reverse
    # bridge.  A graph glued at 0 has 0 as a strong articulation point.
    corpus = random_sb_corpus(12, seed_base=900, nmax=10)
    ears = [ear_graph(seed, n) for seed, n in ((1, 30), (2, 60), (3, 90))]
    glued_at_0 = [
        _glued_at_0(a, b) for a, b in zip(corpus + ears, ears + corpus)
    ]
    assert all(0 in _strong_cuts(g)[1] for g in glued_at_0)
    shapes = [directed_cycle(k) for k in range(2, 10)]
    shapes += [bidirected(g) for g in corpus[:4] + ears]
    shapes += [bidirected_cycle(7), bidirected_complete(5)]
    shapes += [twin_bridge_graph()]
    shapes += [ear_graph(seed, 80, ears=(3, 8)) for seed in range(4)]
    for g in [fig1, fig2] + corpus + ears + glued_at_0 + shapes:
        _assert_splits_match_masked_graph(g)


def test_twin_bridge_graph_has_both_kinds_of_b_bridge():
    g = twin_bridge_graph()
    bridges = sg.b_bridges(g)
    assert [e for e in bridges if g.has_edge(e[1], e[0])] == [(2, 4), (3, 2)]
    assert [e for e in bridges if not g.has_edge(e[1], e[0])] == [
        (0, 1), (1, 3), (2, 0), (4, 1)
    ]


def test_long_paths_do_not_recurse():
    # Depth-first numbering and path compression run on explicit stacks:
    # a directed cycle's dominator trees are paths of length n.
    n = 3000
    arcs, points = _strong_cuts(directed_cycle(n))
    assert arcs == tuple(sorted(directed_cycle(n).edges))
    assert points == tuple(range(n))
    assert sg.two_edge_blocks(bidirected_cycle(n)) == [tuple(range(n))]
    # The triconnected components' searches also run on explicit stacks:
    # H is one 3000-cycle, then two long cycles joined by a chord.
    cycle = sg.cut_report(bidirected_cycle(n))
    assert cycle.b_bridges == ()
    assert cycle.b_articulation_points == tuple(range(n))
    chorded = sg.build_digraph(n, directed_cycle(n).edges + ((0, n // 2),))
    cuts = sg.cut_report(chorded)
    assert cuts.b_bridges == tuple(sorted(directed_cycle(n).edges))
    assert cuts.b_articulation_points == tuple(range(n))

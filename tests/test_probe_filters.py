"""The cut sets of resilience match their definitions, and the probe sets
of resilience and blocks give the same answers as probing every single
deletion."""

import numpy as np
from hypothesis import given

import sbgraph as sg
from sbgraph.resilience import _strong_cuts
from helpers import (
    bidirected_complete,
    bidirected_cycle,
    c3,
    directed_cycle,
    glued,
    random_sb_corpus,
    reference_b_articulation_points,
    reference_b_bridges,
    reference_edge_relation,
    reference_strong_articulation_points,
    reference_strong_bridges,
    reference_two_edge_blocks,
    reference_two_strong_blocks,
    reference_vertex_relation,
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


def _assert_sc_families_match(g):
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
    assert np.array_equal(sg.edge_relation(g).cells, edge_cells)
    # Probing every arc, not only the b-bridges, also runs the masked probe
    # on deletions that keep g strongly biconnected; there an arc with an
    # antiparallel twin must leave its underlying edge in place.
    assert np.array_equal(
        sg.edge_relation(g, _bridges=sorted(g.edges)).cells, edge_cells
    )
    assert np.array_equal(
        sg.vertex_relation(g).cells, reference_vertex_relation(g)
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


def test_filters_match_references_on_sb_corpus(fig1, fig2):
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
    for g in [fig1, fig2, twin_bridge_graph()] + small + cycles + corpus:
        _assert_sc_families_match(g)
        _assert_sb_families_match(g)


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

import pytest

import sbgraph as sg
from helpers import (
    bidirected_complete,
    c3,
    directed_cycle,
    one_based,
    random_sb_corpus,
    single_arc,
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
    comps = sg.components_2esb(fig1, guard=16)
    assert comps == [one_based(9, 10, 11, 12, 13, 14)]


def test_components_2esb_guard(fig1):
    with pytest.raises(sg.GuardError):
        sg.components_2esb(fig1)  # n=16 over the default guard


def test_components_2esb_trivial():
    assert sg.components_2esb(c3()) == []
    assert sg.components_2esb(bidirected_complete(4)) == [(0, 1, 2, 3)]


def test_components_2vsb_trivial():
    assert sg.components_2vsb(bidirected_complete(4)) == [(0, 1, 2, 3)]
    assert sg.components_2vsb(c3()) == []
    assert sg.components_2vsb(two_triangles()) == []


def test_components_2vsb_fig1(fig1):
    assert sg.components_2vsb(fig1, guard=16) == [
        one_based(9, 10, 11, 12, 13, 14)
    ]


def test_components_overlap_and_edge_bounds():
    for g in random_sb_corpus(30, seed_base=340):
        esb = sg.components_2esb(g)
        for i in range(len(esb)):
            for j in range(i):
                assert len(set(esb[i]) & set(esb[j])) <= 1
        for c in sg.components_2vsb(g):
            h, _ = sg.induced_subgraph(g, c)
            assert h.m >= 2 * len(c)

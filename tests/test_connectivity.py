import itertools

import pytest
from hypothesis import given

import sbgraph as sg
from sbgraph import connectivity
from helpers import (
    bidirected_complete,
    brute_connected_components,
    brute_scc_partition,
    c3,
    digraphs,
    single_arc,
    two_triangles,
)


def test_scc_cycle():
    assert sg.strongly_connected_components(c3()) == [(0, 1, 2)]


def test_scc_single_arc():
    assert sg.strongly_connected_components(single_arc()) == [(0,), (1,)]


def test_scc_fig1_single_class(fig1):
    assert sg.strongly_connected_components(fig1) == [tuple(range(16))]


def test_scc_edge_order_invariance():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
    base = sg.strongly_connected_components(sg.build_digraph(5, edges))
    rng = sg.SplitMix64(99)
    for _ in range(5):
        shuffled = list(edges)
        rng.shuffle(shuffled)
        g = sg.build_digraph(5, shuffled)
        assert sg.strongly_connected_components(g) == base


@given(digraphs(max_n=7))
def test_scc_matches_reachability_bruteforce(g):
    assert sg.strongly_connected_components(g) == brute_scc_partition(g)


def test_is_strongly_connected():
    assert sg.is_strongly_connected(c3())
    assert not sg.is_strongly_connected(single_arc())
    assert sg.is_strongly_connected(sg.build_digraph(1, []))
    assert sg.is_strongly_connected(sg.build_digraph(0, []))


def test_is_strongly_connected_fig2(fig2):
    assert sg.is_strongly_connected(fig2)


def test_blocks_triangle():
    u = sg.UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
    dec = sg.undirected_blocks(u)
    assert dec.blocks == ((0, 1, 2),)
    assert dec.articulation_points == ()
    assert dec.bridges == ()


def test_blocks_path():
    u = sg.UndirectedGraph(3, [(0, 1), (1, 2)])
    dec = sg.undirected_blocks(u)
    assert dec.blocks == ((0, 1), (1, 2))
    assert dec.articulation_points == (1,)
    assert dec.bridges == ((0, 1), (1, 2))


def test_blocks_two_triangles_sharing_vertex():
    u = sg.UndirectedGraph(
        5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    )
    dec = sg.undirected_blocks(u)
    assert dec.blocks == ((0, 1, 2), (2, 3, 4))
    assert dec.articulation_points == (2,)


def test_blocks_isolated_vertex_is_singleton():
    u = sg.UndirectedGraph(3, [(0, 1)])
    dec = sg.undirected_blocks(u)
    assert dec.blocks == ((0, 1), (2,))


def test_blocks_pairwise_overlap():
    u = sg.underlying(two_triangles())
    dec = sg.undirected_blocks(u)
    for i in range(len(dec.blocks)):
        for j in range(i):
            assert len(set(dec.blocks[i]) & set(dec.blocks[j])) <= 1


def test_bridge_iff_two_vertex_block():
    u = sg.UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    dec = sg.undirected_blocks(u)
    assert dec.bridges == ((0, 1),)
    assert (0, 1) in dec.blocks


def test_is_biconnected_conventions():
    triangle = sg.UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
    path = sg.UndirectedGraph(3, [(0, 1), (1, 2)])
    assert sg.is_biconnected(triangle)
    assert not sg.is_biconnected(path)
    assert sg.is_biconnected(sg.UndirectedGraph(1, []))
    assert sg.is_biconnected(sg.UndirectedGraph(2, [(0, 1)]))
    assert not sg.is_biconnected(sg.UndirectedGraph(2, []))


def test_is_biconnected_fig1_underlying(fig1):
    assert sg.is_biconnected(sg.underlying(fig1))


@given(digraphs(min_n=3, max_n=7))
def test_biconnected_iff_single_block_when_connected(g):
    u = sg.underlying(g)
    dec = sg.undirected_blocks(u)
    connected = brute_connected_components(u.n, u.edges) <= 1
    if connected and u.n >= 3:
        assert sg.is_biconnected(u) == (len(dec.blocks) == 1)


@given(digraphs(min_n=2, max_n=7))
def test_articulation_point_bruteforce(g):
    u = sg.underlying(g)
    dec = sg.undirected_blocks(u)
    base = brute_connected_components(u.n, u.edges)
    for v in range(u.n):
        increases = (
            brute_connected_components(u.n, u.edges, skip=v) > base - (0 if u.adj[v] else 1)
        )
        assert (v in dec.articulation_points) == increases


def test_articulation_points_are_multi_block_vertices():
    u = sg.underlying(two_triangles())
    dec = sg.undirected_blocks(u)
    counts = {}
    for b in dec.blocks:
        for v in b:
            counts[v] = counts.get(v, 0) + 1
    assert set(dec.articulation_points) == {v for v, k in counts.items() if k >= 2}


def test_is_strongly_biconnected():
    assert not sg.is_strongly_biconnected(single_arc())
    assert sg.is_strongly_biconnected(sg.build_digraph(2, [(0, 1), (1, 0)]))
    assert sg.is_strongly_biconnected(bidirected_complete(4))


def test_is_strongly_biconnected_fig1(fig1):
    assert sg.is_strongly_biconnected(fig1)


def test_is_strongly_biconnected_fig2(fig2):
    assert sg.is_strongly_biconnected(fig2)


def test_maximal_subsets_ends_a_region_kept_whole(monkeypatch):
    # No subset of a region kept whole is enumerated; a region that is not
    # kept whole is searched from the next size down.
    sizes = []
    combinations = itertools.combinations

    def counting(region, size):
        sizes.append(size)
        return combinations(region, size)

    monkeypatch.setattr(connectivity.itertools, "combinations", counting)
    found = connectivity.maximal_subsets(
        [range(6), range(6, 9)], 2,
        lambda s: s == (0, 1, 2, 3, 4, 5) or (len(s) == 2 and s[0] >= 6),
    )
    assert found == [(0, 1, 2, 3, 4, 5), (6, 7), (6, 8), (7, 8)]
    assert sizes == [2]

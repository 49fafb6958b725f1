"""The triconnected components of the underlying graph, and the cut report
read off them, against the per-vertex biconnected-components sweep."""

import collections

from hypothesis import given

import sbgraph as sg
from sbgraph._triconnected import triconnected_components
from helpers import (
    bidirected_complete,
    bidirected_cycle,
    c3,
    directed_cycle,
    ear_graph,
    random_sb_corpus,
    reference_cut_report,
    strongly_connected_digraphs,
    twin_bridge_graph,
)


def p_node_with_real_edge(length):
    """Paths u -> ... -> v and v -> ... -> u with `length` arcs each, plus
    the arc u -> v: H is a bond on {u, v} holding that edge and two
    cycles."""
    u, v = 0, 1
    forward = [u, *range(2, length + 1), v]
    backward = [v, *range(length + 1, 2 * length), u]
    arcs = list(zip(forward, forward[1:])) + list(zip(backward, backward[1:]))
    return sg.build_digraph(2 * length, arcs + [(u, v)])


def _kinds(g):
    und = sg.underlying(g)
    return sorted(k for k, _, _ in triconnected_components(und.n, und.adj))


def _assert_components_split_h(g):
    """Each real edge lies in one component and each virtual edge in two;
    the components form a tree, each has its kind's shape, and no two
    S-nodes or two P-nodes share a virtual edge."""
    und = sg.underlying(g)
    comps = triconnected_components(und.n, und.adj)
    real = sorted(e for _, r, _ in comps for e in r)
    assert real == list(und.edges)
    virtual = sum(len(v) for _, _, v in comps)
    assert virtual == 2 * (len(comps) - 1)
    owners = {}
    for kind, r, v in comps:
        edges = [tuple(sorted(e)) for e in r + v]
        degree = collections.Counter(x for e in edges for x in e)
        if kind == "P":
            assert len(degree) == 2 and len(edges) >= 3
        elif kind == "S":
            assert len(edges) == len(degree) >= 3
            assert set(degree.values()) == {2}
        else:
            assert len(set(edges)) == len(edges)
            assert len(degree) >= 4 and min(degree.values()) >= 3
        for e in v:
            owners.setdefault(tuple(sorted(e)), []).append(kind)
    # The virtual edges on one pair of poles: one joining two nodes that
    # are not both S-nodes, or those of one P-node, each to a non-P node.
    for kinds in owners.values():
        bonds = kinds.count("P")
        if bonds:
            assert len(kinds) == 2 * bonds
        else:
            assert len(kinds) == 2 and kinds != ["S", "S"]


def _assert_matches_sweep(g):
    assert sg.cut_report(g) == reference_cut_report(g)


def test_shapes_of_the_components():
    for k in (3, 4, 7):
        assert _kinds(bidirected_cycle(k)) == ["S"]
    assert _kinds(directed_cycle(6)) == ["S"]
    for k in (4, 5):
        assert _kinds(bidirected_complete(k)) == ["R"]
    for length in (2, 3):
        g = p_node_with_real_edge(length)
        assert _kinds(g) == ["P", "S", "S"]
        und = sg.underlying(g)
        comps = triconnected_components(und.n, und.adj)
        assert [r for k, r, _ in comps if k == "P"] == [[(0, 1)]]
        _assert_components_split_h(g)


def test_small_graphs_match_sweep():
    graphs = [
        sg.build_digraph(1, []),
        sg.build_digraph(2, [(0, 1), (1, 0)]),
        c3(),
        bidirected_complete(3),
        directed_cycle(4),
        bidirected_cycle(4),
        bidirected_complete(4),
        sg.build_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 0)]),
    ]
    for g in graphs:
        assert sg.is_strongly_biconnected(g)
        _assert_matches_sweep(g)


def test_one_node_shapes_match_sweep():
    for k in (5, 6, 9):
        _assert_matches_sweep(bidirected_cycle(k))
        _assert_matches_sweep(directed_cycle(k))
    for k in (4, 5):
        _assert_matches_sweep(bidirected_complete(k))


def test_p_node_with_real_edge_matches_sweep():
    for length in (2, 3, 4):
        _assert_matches_sweep(p_node_with_real_edge(length))


def test_figures_and_corpus_match_sweep(fig1, fig2):
    for g in [fig1, fig2, twin_bridge_graph()]:
        _assert_components_split_h(g)
        _assert_matches_sweep(g)
    for g in random_sb_corpus(40, seed_base=900, nmax=10):
        _assert_components_split_h(g)
        _assert_matches_sweep(g)


def test_long_ear_graphs_match_sweep():
    for seed in range(13):
        g = ear_graph(seed, 20 + 5 * seed)
        assert sg.is_strongly_biconnected(g)
        _assert_components_split_h(g)
        _assert_matches_sweep(g)


@given(strongly_connected_digraphs())
def test_random_draws_match_sweep(g):
    if not sg.is_strongly_biconnected(g):
        return
    if g.n >= 3:
        _assert_components_split_h(g)
    _assert_matches_sweep(g)

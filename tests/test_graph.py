import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sbgraph as sg
from helpers import (
    bidirected_complete,
    c3,
    digraphs,
    ear_graph,
    run_capped,
    single_arc,
)


def test_build_cycle():
    g = c3()
    assert g.n == 3
    assert g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 0))
    assert g.out_adj == ((1,), (2,), (0,))
    assert g.in_adj == ((2,), (0,), (1,))


def test_equal_arc_sets_make_equal_graphs_in_any_order():
    # Equality and hashing read the arc set; `edges` keeps the input order.
    g = sg.parse_edge_list("2 2\n0 1\n1 0\n")
    h = sg.parse_edge_list("2 2\n1 0\n0 1\n")
    assert g == h and hash(g) == hash(h)
    assert g.edges == ((0, 1), (1, 0)) and h.edges == ((1, 0), (0, 1))
    assert g != sg.build_digraph(3, g.edges)
    assert g != sg.build_digraph(2, [(0, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(sg.VertexRangeError):
        sg.build_digraph(2, [(0, 2)])
    with pytest.raises(sg.VertexRangeError):
        sg.build_digraph(2, [(-1, 0)])


def test_build_rejects_self_loop():
    with pytest.raises(sg.SelfLoopError):
        sg.build_digraph(2, [(0, 0)])


def test_build_rejects_duplicate_arc():
    with pytest.raises(sg.DuplicateEdgeError):
        sg.build_digraph(3, [(0, 1), (0, 1)])


def test_antiparallel_arcs_allowed():
    g = sg.build_digraph(2, [(0, 1), (1, 0)])
    assert g.m == 2


def test_remove_edge_cycle():
    g = c3()
    h = sg.remove_edge(g, (0, 1))
    assert h.n == 3
    assert set(h.edges) == {(1, 2), (2, 0)}
    # original untouched
    assert g.m == 3


def test_remove_edge_bidirected_pair():
    g = sg.build_digraph(2, [(0, 1), (1, 0)])
    h = sg.remove_edge(g, (0, 1))
    assert h.edges == ((1, 0),)


def test_remove_edge_missing():
    # Absent arcs and out-of-range ones.  Row -1 of a tuple is the last
    # row, (0,) in c3, and must not count.
    for arc in [(1, 0), (0, 2), (-1, 0), (2, -3), (3, 0), (0, 3)]:
        with pytest.raises(sg.MissingEdgeError):
            sg.remove_edge(c3(), arc)


def test_remove_vertex_cycle():
    h, old_to_new = sg.remove_vertex(c3(), 0)
    assert h.n == 2
    assert h.edges == ((0, 1),)  # old arc 1->2
    assert old_to_new == {1: 0, 2: 1}


def test_remove_vertex_complete():
    g = bidirected_complete(4)
    for v in range(4):
        h, _ = sg.remove_vertex(g, v)
        assert h == bidirected_complete(3)


def test_remove_vertex_out_of_range():
    with pytest.raises(sg.VertexRangeError):
        sg.remove_vertex(c3(), 3)


def test_induced_identity():
    g = c3()
    h, old_to_new = sg.induced_subgraph(g, range(3))
    assert h == g
    assert old_to_new == {0: 0, 1: 1, 2: 2}


def test_induced_pair():
    h, _ = sg.induced_subgraph(c3(), [0, 1])
    assert h.n == 2
    assert h.edges == ((0, 1),)


@given(digraphs(), st.data())
def test_induced_subgraph_matches_the_arc_filter(g, data):
    vertices = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    h, old_to_new = sg.induced_subgraph(g, vertices)
    # The definition: keep each arc of g with both ends in the set.
    members = sorted(set(vertices))
    assert old_to_new == {v: i for i, v in enumerate(members)}
    assert set(h.edges) == {
        (old_to_new[t], old_to_new[w])
        for t, w in g.edges
        if t in old_to_new and w in old_to_new
    }
    assert list(h.edges) == sorted(h.edges)


def test_induced_out_of_range():
    with pytest.raises(sg.VertexRangeError):
        sg.induced_subgraph(c3(), [0, 5])


def test_underlying_collapses_antiparallel():
    g = sg.build_digraph(2, [(0, 1), (1, 0)])
    u = sg.underlying(g)
    assert u.edges == ((0, 1),)


def test_underlying_triangle():
    u = sg.underlying(c3())
    assert u.edges == ((0, 1), (0, 2), (1, 2))
    assert u.adj == ((1, 2), (0, 2), (0, 1))


def test_underlying_unchanged_iff_antiparallel():
    g = sg.build_digraph(3, [(0, 1), (1, 0), (1, 2)])
    assert sg.underlying(sg.remove_edge(g, (0, 1))) == sg.underlying(g)
    assert sg.underlying(sg.remove_edge(g, (1, 2))) != sg.underlying(g)


@given(digraphs(min_n=0))
def test_underlying_matches_the_validating_constructor(g):
    # `underlying` reads the graph's rows and skips the checks.
    u = sg.underlying(g)
    ref = sg.UndirectedGraph(g.n, g.edges)
    assert (u.n, u.edges, u.adj) == (ref.n, ref.edges, ref.adj)
    for a in range(g.n):
        for b in range(g.n):
            assert u.has_edge(a, b) == ref.has_edge(a, b)


@given(digraphs(min_n=0))
def test_has_edge_is_membership_in_edges(g):
    # Every int pair, ids out of range and negative ones included.
    arcs, u = set(g.edges), sg.underlying(g)
    pairs = set(u.edges)
    ids = range(-2, g.n + 2)
    for a in ids:
        for b in ids:
            assert g.has_edge(a, b) == ((a, b) in arcs)
            assert u.has_edge(a, b) == ((min(a, b), max(a, b)) in pairs)


def test_a_parsed_graph_and_its_verdict_keep_no_edge_set():
    """A graph keeps its sorted rows and no second copy of its edges: on
    a long-ear graph with n = 20000, parsing it and asking
    `is_strongly_biconnected` leaves 9.6 MB allocated under tracemalloc
    (CPython 3.11.7, pure backend), where a Python set of edges in the
    digraph and in its underlying graph left 15.4 MB."""
    text = sg.emit_edge_list(ear_graph(7, 20000, ears=(3, 8)))
    tracemalloc.start()
    try:
        g = sg.parse_edge_list(text)
        assert sg.is_strongly_biconnected(g)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 12_500_000


@given(digraphs())
def test_roundtrip_reconstruction(g):
    assert sg.build_digraph(g.n, g.edges) == g


@given(digraphs(), st.data())
def test_remove_edge_counts(g, data):
    if not g.edges:
        return
    e = data.draw(st.sampled_from(list(g.edges)))
    h = sg.remove_edge(g, e)
    assert h.n == g.n
    assert h.m == g.m - 1
    assert not h.has_edge(*e)


@given(digraphs(), st.data())
def test_underlying_edge_rule(g, data):
    if not g.edges:
        return
    u, v = data.draw(st.sampled_from(list(g.edges)))
    same = sg.underlying(sg.remove_edge(g, (u, v))) == sg.underlying(g)
    assert same == g.has_edge(v, u)


def test_undirected_graph_rejects_self_loop():
    with pytest.raises(sg.SelfLoopError):
        sg.UndirectedGraph(2, [(1, 1)])


def test_single_arc_adjacency():
    g = single_arc()
    assert g.out_adj == ((1,), ())
    assert g.in_adj == ((), (0,))


def test_huge_vertex_count_is_refused_before_allocating():
    code = (
        "import sbgraph as sg\n"
        "for build in (sg.build_digraph, sg.Digraph._from_valid,\n"
        "              sg.UndirectedGraph):\n"
        "    try:\n"
        "        build(10**11, [])\n"
        "    except sg.GuardError as exc:\n"
        "        print(exc)\n"
    )
    proc = run_capped(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("more than the limit") == 3, proc.stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sbgraph as sg
from sbgraph import _kernels, sbc
from helpers import (
    bidirected_complete,
    bidirected_cycle,
    c3,
    digraphs,
    glued,
    one_based,
    random_sb_corpus,
    reference_sbc,
    single_arc,
    two_triangles,
)


def test_strongly_biconnected_input_is_single_component(fig1):
    d = sg.strongly_biconnected_components(fig1)
    assert d.components == (tuple(range(16)),)
    d = sg.strongly_biconnected_components(bidirected_complete(4))
    assert d.components == ((0, 1, 2, 3),)


def test_strongly_biconnected_input_makes_one_scc_call(monkeypatch, fig1):
    # The components are the blocks of each SCC class, so one SCC call
    # over V and one `bcc` call per class of two or more vertices give
    # them all, strongly biconnected input or not; a one-vertex class
    # costs no call.  Both verdicts read the same whole-graph passes, so
    # after them a strongly connected input's components, the blocks of
    # its one class, cost no further call.
    calls = []
    bcc_calls = []
    scc_ids = _kernels.scc_ids
    bcc = _kernels.bcc

    def counting(n, adj, sub):
        calls.append(sub)
        return scc_ids(n, adj, sub)

    def counting_bcc(n, adj, sub):
        bcc_calls.append(sub)
        return bcc(n, adj, sub)

    monkeypatch.setattr(_kernels, "scc_ids", counting)
    monkeypatch.setattr(_kernels, "bcc", counting_bcc)
    tail = sg.build_digraph(6, [*two_triangles().edges, (4, 5)])
    cases = [(g, (tuple(range(g.n)),)) for g in (fig1, bidirected_cycle(6))]
    cases += [
        (two_triangles(), ((0, 1, 2), (2, 3, 4))),
        (glued(bidirected_complete(4), c3()), ((0, 1, 2, 3), (3, 4, 5))),
        (tail, ((0, 1, 2), (2, 3, 4), (5,))),
    ]
    for g, components in cases:
        calls.clear()
        bcc_calls.clear()
        d = sg.strongly_biconnected_components(sg.build_digraph(g.n, g.edges))
        assert d.components == components
        assert len(calls) == 1
        classes = sg.strongly_connected_components(g)
        assert len(bcc_calls) == sum(len(c) >= 2 for c in classes)
        h = sg.build_digraph(g.n, g.edges)
        sg.is_strongly_biconnected(h)
        calls.clear()
        bcc_calls.clear()
        assert sg.strongly_biconnected_components(h).components == components
        assert calls == []
        if len(classes) == 1:
            assert bcc_calls == []
        else:
            assert len(bcc_calls) == sum(len(c) >= 2 for c in classes)


@given(digraphs(max_n=8))
def test_blocks_of_each_scc_are_strongly_connected(g):
    # The lemma behind the refinement, checked on copies: every block of
    # the underlying graph of an SCC class induces a strongly connected
    # subgraph.
    for c in sg.strongly_connected_components(g):
        h, _ = sg.induced_subgraph(g, c)
        for b in sg.undirected_blocks(sg.underlying(h)).blocks:
            block, _ = sg.induced_subgraph(g, [c[v] for v in b])
            assert sg.is_strongly_connected(block)


def test_two_triangles_components():
    # Frozen from the enumeration oracle: two triangles sharing vertex 2.
    d = sg.strongly_biconnected_components(two_triangles())
    assert d.components == ((0, 1, 2), (2, 3, 4))
    assert d.components == sg.sbc_oracle(two_triangles()).components


def test_fig1_separation_after_arc_removal(fig1):
    h = sg.remove_edge(fig1, one_based(2, 15))
    d = sg.strongly_biconnected_components(h)
    v15, v12 = 15 - 1, 12 - 1
    assert not sg.same_sbc(d, v15, v12)


def test_fig2_separation_after_vertex_removal(fig2):
    h, old_to_new = sg.remove_vertex(fig2, 4 - 1)
    d = sg.strongly_biconnected_components(h)
    assert not sg.same_sbc(d, old_to_new[2 - 1], old_to_new[6 - 1])


def test_same_sbc_reflexive_and_cross():
    d = sg.strongly_biconnected_components(two_triangles())
    assert sg.same_sbc(d, 0, 0)
    assert sg.same_sbc(d, 0, 1)
    assert sg.same_sbc(d, 2, 3)
    assert not sg.same_sbc(d, 0, 3)


@given(digraphs(max_n=6), st.data())
def test_same_sbc_symmetric(g, data):
    d = sg.strongly_biconnected_components(g)
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    assert sg.same_sbc(d, x, y) == sg.same_sbc(d, y, x)


def test_oracle_cycle():
    assert sg.sbc_oracle(c3()).components == ((0, 1, 2),)


def test_oracle_single_arc():
    assert sg.sbc_oracle(single_arc()).components == ((0,), (1,))


def test_oracle_guard():
    g = sg.build_digraph(13, [(i, (i + 1) % 13) for i in range(13)])
    with pytest.raises(sg.GuardError):
        sg.sbc_oracle(g)
    # explicit override allows it
    assert sg.sbc_oracle(g, guard=13).components


def test_oracle_tests_a_strongly_biconnected_graph_once(monkeypatch, fig1):
    # The whole vertex set is kept first, so no smaller subset is tried.
    calls = []
    subset = sbc._strongly_biconnected_subset

    def counting(g, und, s):
        calls.append(s)
        return subset(g, und, s)

    monkeypatch.setattr(sbc, "_strongly_biconnected_subset", counting)
    g = sg.gen_random_sb(10, 0.6, 1)
    assert sg.sbc_oracle(g).components == (tuple(range(10)),)
    assert calls == [tuple(range(10))]


def test_refinement_matches_oracle_on_corpus():
    for g in random_sb_corpus(60, seed_base=700):
        assert (
            sg.strongly_biconnected_components(g).components
            == sg.sbc_oracle(g).components
        )


@given(digraphs(max_n=7))
def test_oracle_matches_definition_random_shapes(g):
    assert sg.sbc_oracle(g).components == reference_sbc(g)


def test_oracle_matches_definition_on_corpus():
    for g in random_sb_corpus(30, seed_base=700):
        assert sg.sbc_oracle(g).components == reference_sbc(g)


@given(digraphs(max_n=7))
def test_refinement_matches_oracle_random_shapes(g):
    fast = sg.strongly_biconnected_components(g).components
    assert fast == sg.sbc_oracle(g).components


@given(digraphs(max_n=7))
def test_decomposition_invariants(g):
    d = sg.strongly_biconnected_components(g)
    comps = d.components
    # cover
    assert set().union(*comps) == set(range(g.n)) if comps else g.n == 0
    # each component induces a strongly biconnected subgraph
    for c in comps:
        h, _ = sg.induced_subgraph(g, c)
        assert sg.is_strongly_biconnected(h)
    # no component inside another, pairwise overlap at most one vertex
    for i in range(len(comps)):
        for j in range(i):
            inter = set(comps[i]) & set(comps[j])
            assert not (set(comps[i]) <= set(comps[j]))
            assert not (set(comps[j]) <= set(comps[i]))
            assert len(inter) <= 1
    # canonical order
    assert list(comps) == sorted(comps, key=lambda c: (c[0], len(c), c))


def test_decomposition_edge_order_invariance():
    edges = list(two_triangles().edges)
    base = sg.strongly_biconnected_components(sg.build_digraph(5, edges))
    rng = sg.SplitMix64(5)
    for _ in range(5):
        rng.shuffle(edges)
        d = sg.strongly_biconnected_components(sg.build_digraph(5, edges))
        assert d.components == base.components

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbgraph as sg
from sbgraph.blocks import _blocks
from sbgraph.connectivity import canonical_family
from helpers import (
    bidirected_complete,
    bidirected_cycle,
    c3,
    dense,
    ear_graph,
    max_cliques_of_sets,
    neighbour_sets,
    one_based,
    overlaps_at_most,
    probe_relation,
    random_sb_corpus,
    reference_blocks,
    single_arc,
    two_triangles,
)

FIG1_2EB = [one_based(4, 15), one_based(4, 9, 10, 11, 12, 13, 14)]
FIG1_2E = one_based(4, 9, 10, 11, 12, 13, 14, 15)
FIG2_2SB = [one_based(1, 2, 3, 4), one_based(3, 4, 5, 6)]


def test_edge_relation_no_bridges_all_true():
    rel = sg.edge_relation(bidirected_complete(4))
    assert dense(rel).all()


def test_edge_relation_cycle_all_false_off_diagonal():
    cells = dense(sg.edge_relation(c3()))
    assert cells.diagonal().all()
    off = cells.copy()
    np.fill_diagonal(off, False)
    assert not off.any()


def test_edge_relation_fig1(fig1):
    rel = sg.edge_relation(fig1)
    assert not rel.co(15 - 1, 12 - 1)
    assert not rel.co(12 - 1, 15 - 1)
    assert rel.co(4 - 1, 15 - 1)
    # symmetric with a true diagonal
    cells = dense(rel)
    assert (cells == cells.T).all()
    assert cells.diagonal().all()


def test_edge_relation_requires_strongly_biconnected():
    with pytest.raises(sg.NotStronglyBiconnectedError):
        sg.edge_relation(single_arc())


def test_two_edge_biconnected_blocks_fig1(fig1):
    assert sg.two_edge_biconnected_blocks(fig1) == FIG1_2EB


def test_two_edge_biconnected_blocks_trivial():
    assert sg.two_edge_biconnected_blocks(bidirected_complete(4)) == [
        (0, 1, 2, 3)
    ]
    assert sg.two_edge_biconnected_blocks(c3()) == []


def test_two_edge_biconnected_blocks_precondition():
    with pytest.raises(sg.NotStronglyBiconnectedError):
        sg.two_edge_biconnected_blocks(two_triangles())


def test_oracle_agrees_on_fixtures(fig1):
    assert sg.oracle_two_edge_biconnected_blocks(fig1) == FIG1_2EB
    assert sg.oracle_two_edge_biconnected_blocks(bidirected_complete(4)) == [
        (0, 1, 2, 3)
    ]
    assert sg.oracle_two_edge_biconnected_blocks(c3()) == []


def test_oracle_guard():
    g = bidirected_cycle(25)
    with pytest.raises(sg.GuardError):
        sg.oracle_two_edge_biconnected_blocks(g)
    assert sg.oracle_two_edge_biconnected_blocks(g, guard=25) == (
        sg.two_edge_biconnected_blocks(g)
    )


def test_oracle_agrees_on_corpus():
    for g in random_sb_corpus(60, seed_base=2000):
        assert sg.two_edge_biconnected_blocks(g) == (
            sg.oracle_two_edge_biconnected_blocks(g)
        )
    for g in random_sb_corpus(20, seed_base=2600, nmin=9, nmax=10, p=0.4):
        assert sg.two_edge_biconnected_blocks(g) == (
            sg.oracle_two_edge_biconnected_blocks(g)
        )


def test_block_overlap_bounds():
    for g in random_sb_corpus(40, seed_base=2100):
        assert overlaps_at_most(sg.two_edge_biconnected_blocks(g), 1)
        assert overlaps_at_most(sg.two_strong_biconnected_blocks(g), 2)


def test_relation_chains_stay_in_one_block():
    """Closed relation chains (w0~w1~...~wt~w0) land inside one block."""
    checked = 0
    for g in random_sb_corpus(25, seed_base=2200):
        rel = sg.edge_relation(g)
        blocks = sg.two_edge_biconnected_blocks(g)
        cells = dense(rel)
        cells = cells & cells.T
        for chain in itertools.combinations(range(g.n), 3):
            for perm in (chain, (chain[1], chain[0], chain[2])):
                w0, w1, w2 = perm
                if cells[w0, w1] and cells[w1, w2] and cells[w0, w2]:
                    assert any(
                        {w0, w1, w2} <= set(b) for b in blocks
                    ), (g.edges, perm, blocks)
                    checked += 1
    assert checked > 0


def test_two_strong_biconnected_blocks_fig2(fig2):
    blocks = sg.two_strong_biconnected_blocks(fig2)
    assert blocks == FIG2_2SB
    inter = set(blocks[0]) & set(blocks[1])
    assert len(inter) == 2


def test_two_strong_biconnected_blocks_trivial():
    assert sg.two_strong_biconnected_blocks(bidirected_complete(4)) == [
        (0, 1, 2, 3)
    ]
    assert sg.two_strong_biconnected_blocks(c3()) == []


def test_two_edge_blocks_fig1(fig1):
    assert FIG1_2E in sg.two_edge_blocks(fig1)


def test_two_edge_blocks_trivial():
    assert sg.two_edge_blocks(c3()) == []
    # Frozen from a per-arc reachability recheck over all 8 deletions.
    assert sg.two_edge_blocks(bidirected_cycle(4)) == [(0, 1, 2, 3)]


def test_two_edge_blocks_requires_strong_connectivity():
    with pytest.raises(sg.NotStronglyConnectedError):
        sg.two_edge_blocks(single_arc())


def test_two_edge_blocks_disjoint():
    for g in random_sb_corpus(30, seed_base=2300):
        assert overlaps_at_most(sg.two_edge_blocks(g), 0)


def test_two_strong_blocks_fig2(fig2):
    blocks = sg.two_strong_blocks(fig2)
    assert any({2 - 1, 6 - 1} <= set(b) for b in blocks)


def test_two_strong_blocks_trivial():
    assert sg.two_strong_blocks(bidirected_complete(4)) == [(0, 1, 2, 3)]
    assert sg.two_strong_blocks(c3()) == []


def test_every_2eb_block_inside_a_2e_block():
    for g in random_sb_corpus(40, seed_base=2400):
        e2 = sg.two_edge_blocks(g)
        for b in sg.two_edge_biconnected_blocks(g):
            assert any(set(b) <= set(x) for x in e2)


def test_components_live_inside_blocks():
    for g in random_sb_corpus(30, seed_base=2500):
        eb = sg.two_edge_biconnected_blocks(g)
        for c in sg.components_2esb(g):
            assert any(set(c) <= set(b) for b in eb)
        sbb = sg.two_strong_biconnected_blocks(g)
        for c in sg.components_2vsb(g):
            assert any(set(c) <= set(b) for b in sbb)


def test_families_are_edge_order_invariant(fig1):
    base = sg.two_edge_biconnected_blocks(fig1)
    edges = list(fig1.edges)
    rng = sg.SplitMix64(17)
    for _ in range(3):
        rng.shuffle(edges)
        g = sg.build_digraph(fig1.n, edges)
        assert sg.two_edge_biconnected_blocks(g) == base


def test_helper_graph_edges_match_relation(fig1):
    rel = sg.edge_relation(fig1)
    heb = sg.helper_graph(rel)
    for x, y in itertools.combinations(range(fig1.n), 2):
        assert heb.has_edge(x, y) == bool(rel.co(x, y) and rel.co(y, x))


def _family(n, probes):
    return canonical_family(_blocks(n, probes))


def _cliques(n, probes):
    """The maximal cliques of the pair relation of `probes`, read pair by
    pair, by the set-based search over its dense table."""
    cells = probe_relation(n, probes)
    return canonical_family(max_cliques_of_sets(neighbour_sets(cells)))


def _forest_of_cliques(rng, vertices):
    """Parts with the Helly property: the blocks of a random graph whose
    blocks are cliques.  Each vertex starts a block alone, joins a block,
    or starts a block with one vertex placed before it."""
    parts, placed = [], []
    for v in vertices:
        roll = rng.random()
        if not parts or roll < 0.3:
            parts.append([v])
        elif roll < 0.6:
            rng.choice(parts).append(v)
        else:
            parts.append([rng.choice(placed), v])
        placed.append(v)
    return parts


def _random_probe(rng, n):
    """A probe (z, parts) in the form the families give: z a vertex or
    None, and on a random subset of the other vertices either disjoint
    classes or the blocks of a forest of cliques; every other vertex is
    in the implicit part."""
    z = rng.choice([None, rng.randrange(n)]) if n else None
    listed = [v for v in range(n) if v != z and rng.random() < 0.7]
    if rng.random() < 0.5:
        return z, _forest_of_cliques(rng, listed)
    labels = {v: rng.randrange(3) for v in listed}
    return z, [[v for v in listed if labels[v] == k] for k in range(3)]


def test_max_cliques_match_the_set_based_search():
    """`_blocks` returns the maximal cliques of the relation the same
    probes define, on probes whose parts have the Helly property."""
    rng = random.Random(8)
    for _ in range(450):
        n = rng.randint(0, 11)
        probes = [_random_probe(rng, n) for _ in range(rng.randint(0, 4))]
        assert _family(n, probes) == _cliques(n, probes), (n, probes)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 12), st.integers(0, 6), st.randoms(use_true_random=False)
)
def test_indexed_blocks_match_the_set_scanning_reference(n, count, rng):
    """The indexed `_blocks` reads the same family as the reader that
    scans every set at each probe, on Helly probes with n from 0 to 12:
    disjoint classes and block-like parts sharing cut vertices, the
    deleted vertex inside and outside the sets, and repeated probes."""
    probes = []
    for _ in range(count):
        if probes and rng.random() < 0.25:
            probes.append(rng.choice(probes))
        else:
            probes.append(_random_probe(rng, n))
    assert _family(n, probes) == canonical_family(reference_blocks(n, probes))


def _block_graph(shape, size, count, rng):
    """`count` cliques of `size` vertices glued at single vertices into a
    block graph of the given shape: a chain, where each block meets the
    next; a star, where all share vertex 0; or a tree, where each block
    meets a random vertex of those before it.  Returns the blocks."""
    blocks = [tuple(range(size))]
    n = size
    for _ in range(count - 1):
        if shape == "chain":
            cut = blocks[-1][-1]
        elif shape == "star":
            cut = 0
        else:
            cut = rng.randrange(n)
        blocks.append((cut, *range(n, n + size - 1)))
        n += size - 1
    return n, blocks


def _vertex_probe(n, blocks, z):
    """The probe that deletes z from the block graph of `blocks`: the
    components of the rest, the one holding the smallest vertex left
    implicit."""
    holding = [[] for _ in range(n)]
    for b in blocks:
        for v in b:
            holding[v].append(b)
    seen = [v == z for v in range(n)]
    parts = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        part = [root]
        for v in part:
            for b in holding[v]:
                for w in b:
                    if not seen[w]:
                        seen[w] = True
                        part.append(w)
        parts.append(part)
    return z, parts[1:]


@pytest.mark.parametrize(
    "shape,size,count",
    [
        ("chain", 3, 1000),
        ("chain", 4, 700),
        ("star", 3, 800),
        ("star", 4, 600),
        ("tree", 3, 1000),
        ("tree", 4, 700),
        # A path of bridges: blocks of two vertices.
        ("chain", 2, 2000),
    ],
)
def test_max_cliques_of_a_block_graph_are_its_blocks(shape, size, count):
    """The blocks of a graph have the Helly property, so a probe that
    lists them, overlapping at the cut vertices, is read back as those
    blocks, with n of 1000 to 2400.  Twenty vertex deletions first, each
    listing the components it leaves, cut the graph into pieces that
    each keep the deleted vertex; they relate no pair the blocks do
    not, so the answer stays the same."""
    rng = random.Random(count)
    n, blocks = _block_graph(shape, size, count, rng)
    probes = [_vertex_probe(n, blocks, z) for z in rng.sample(range(n), 20)]
    probes.append((None, blocks))
    assert _family(n, probes) == canonical_family(blocks)


def test_max_cliques_of_an_equivalence_are_its_classes():
    """On an equivalence, the 2-edge relation's shape, the blocks are the
    classes of two or more vertices.  Two probes give it here, one
    listing the classes of even index and one those of odd index, so
    each leaves the other classes in its implicit part."""
    rng = random.Random(5)
    order = list(range(3000))
    rng.shuffle(order)
    classes = []
    while order:
        classes.append(order[:rng.randint(1, 5)])
        del order[:len(classes[-1])]
    probes = [(None, classes[0::2]), (None, classes[1::2])]
    assert _family(3000, probes) == (
        canonical_family(c for c in classes if len(c) >= 2)
    )


def test_two_edge_biconnected_blocks_memory_is_subquadratic():
    """Reading the blocks, and the relations as views of them, allocates
    far less than one entry per related pair: on a short-ear graph with
    n = 2000, once its probes are kept on the graph, each call peaks at
    0.26 MB under tracemalloc (CPython 3.11, pure backend), where one
    bit row per vertex made each relation peak at 1.2 MB and building
    the helper graph's adjacency of the related pairs cost 6.7 MB at
    n = 600."""
    g = ear_graph(7, 2000, ears=(1, 2), chords=2 * 2000)
    for read in (
        sg.two_edge_biconnected_blocks, sg.edge_relation, sg.vertex_relation,
    ):
        read(g)
        tracemalloc.start()
        try:
            read(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, read.__name__


def _sets(*sets):
    return canonical_family(sets)


def test_blocks_split_sets_at_each_probe_and_keep_the_deleted_vertex():
    # With no probe, V is the one block once it has two vertices.
    assert _blocks(0, []) == []
    assert _blocks(1, []) == []
    assert _family(2, []) == [(0, 1)]
    # Vertex 4 deleted, vertex 1 in two parts, and no implicit part: each
    # piece keeps 4, and the piece {3, 4} is a block too.
    vertex = (4, [[0, 1], [1, 2], [3]])
    assert _family(5, [vertex]) == _sets({0, 1, 4}, {1, 2, 4}, {3, 4})
    # A probe that lists no part leaves every set as it is.
    assert _family(5, [vertex, (None, [])]) == _family(5, [vertex])
    assert _family(4, [(2, [])]) == [(0, 1, 2, 3)]
    # An arc probe: 0 and 2, in no part, share the implicit part, and
    # {3} is too small to be kept.
    arc = (None, [[3], [1, 4]])
    assert _family(5, [arc]) == _sets({0, 2}, {1, 4})
    # An arc probe that lists every vertex leaves the implicit part
    # empty, so no piece of it is kept.
    assert _family(5, [(None, [[0, 1, 2], [3, 4]])]) == _sets(
        {0, 1, 2}, {3, 4}
    )
    # Probes intersect, and equal pieces are kept once.
    assert _family(5, [vertex, arc]) == [(1, 4)]
    # A set inside another is dropped: {0, 2}, left of {0, 1, 2} once the
    # probe deleting 3 cuts 1 off, lies inside {0, 2, 3}, which that
    # probe does not hit.
    cut = (0, [[1, 2], [2, 3]])
    assert _family(4, [cut]) == _sets({0, 1, 2}, {0, 2, 3})
    assert _family(4, [cut, (3, [[1]])]) == [(0, 2, 3)]
    # Each case agrees with the cliques of the probes' pair relation.
    for n, probes in (
        (5, [vertex]), (5, [arc]), (5, [vertex, arc]), (4, [cut, (3, [[1]])]),
    ):
        assert _family(n, probes) == _cliques(n, probes)


def test_relation_and_same_sbc_reject_vertices_outside_the_graph():
    g = c3()
    rel = sg.edge_relation(g)
    for x, y in ((-1, 0), (0, -1), (0, 3), (3, 0)):
        with pytest.raises(sg.VertexRangeError):
            rel.co(x, y)
    assert rel.co(2, 2) and not rel.co(0, 2)
    d = sg.strongly_biconnected_components(g)
    for x, y in ((7, 7), (0, 7), (7, 0), (-1, 0)):
        with pytest.raises(sg.VertexRangeError):
            sg.same_sbc(d, x, y)
    assert sg.same_sbc(d, 2, 2) and sg.same_sbc(d, 2, 0)

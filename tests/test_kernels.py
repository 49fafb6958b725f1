"""Backend parity and brute-force validation of the traversal kernels."""

import itertools
import random
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbgraph as sg
from sbgraph import _kernels
from sbgraph._kernels import pure
from helpers import (
    brute_scc_partition, digraphs, directed_cycle, ear_graph,
    random_sb_corpus,
)

# conftest builds the compiled backend when it is not installed; these
# tests skip only on a host without a C compiler or the Python headers.
needs_compiled = pytest.mark.needs_compiled
BACKENDS = ["pure", pytest.param("c", marks=needs_compiled)]


def _random_digraphs(count, seed):
    rng = sg.SplitMix64(seed)
    out = []
    for _ in range(count):
        n = 2 + rng.below(7)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = [e for e in pairs if rng.below(100) < 45]
        out.append(sg.build_digraph(n, edges))
    return out


def test_pure_backend_always_available():
    assert "pure" in _kernels.available_backends()


def test_set_backend_rejects_unknown():
    before = _kernels.backend_name()
    with pytest.raises(ValueError):
        with _kernels.use_backend("turbo"):
            pass
    assert _kernels.backend_name() == before


def test_use_backend_restores():
    before = _kernels.backend_name()
    with _kernels.use_backend("pure"):
        assert _kernels.backend_name() == "pure"
    assert _kernels.backend_name() == before


@needs_compiled
def test_backends_agree_on_scc_and_bcc():
    for g in _random_digraphs(150, seed=31):
        u = sg.underlying(g)
        whole = range(g.n)
        pure_scc = _kernels.pure.scc_ids(g.n, g.out_adj, whole)
        c_scc = _kernels._ckern.scc_ids(g.n, g.out_adj, whole)
        assert pure_scc == c_scc
        pure_bcc = _kernels.pure.bcc(u.n, u.adj, whole)
        c_bcc = _kernels._ckern.bcc(u.n, u.adj, whole)
        assert pure_bcc == c_bcc


@needs_compiled
@pytest.mark.parametrize(
    "g",
    [directed_cycle(3000), ear_graph(7, 3000, ears=(3, 8)),
     ear_graph(7, 2000, ears=(1, 2), chords=2000)],
    ids=["cycle-3000", "long-ears-3000", "short-ears-2000"],
)
def test_backends_agree_at_depth(g):
    # Searches thousands of vertices deep, from roots in the given order,
    # in a shuffled order and in a shuffled half of the vertex set.
    u = sg.underlying(g)
    rng = random.Random(g.n)
    shuffled = rng.sample(range(g.n), g.n)
    for sub in (range(g.n), shuffled, shuffled[: g.n // 2]):
        assert _kernels.pure.scc_ids(g.n, g.out_adj, sub) == (
            _kernels._ckern.scc_ids(g.n, g.out_adj, sub)
        )
        assert _kernels.pure.bcc(u.n, u.adj, sub) == (
            _kernels._ckern.bcc(u.n, u.adj, sub)
        )
    # The early-exit walk, with nothing, one vertex or a random half
    # masked out.
    for gone in ((), (shuffled[0],), shuffled[: g.n // 2]):
        assert _kernels.pure.biconnected(u.n, u.adj, gone) == (
            _kernels._ckern.biconnected(u.n, u.adj, frozenset(gone))
        )


@needs_compiled
def test_backends_agree_on_subsets():
    rng = sg.SplitMix64(77)
    for g in _random_digraphs(80, seed=32):
        sub = [v for v in range(g.n) if rng.below(2)]
        u = sg.underlying(g)
        assert _kernels.pure.scc_ids(g.n, g.out_adj, sub) == (
            _kernels._ckern.scc_ids(g.n, g.out_adj, sub)
        )
        assert _kernels.pure.bcc(u.n, u.adj, sub) == (
            _kernels._ckern.bcc(u.n, u.adj, sub)
        )


@needs_compiled
def test_backends_agree_end_to_end():
    # Each backend gets its own copy of every graph: the facts one backend
    # keeps on a graph would answer the other backend's calls.
    for g in random_sb_corpus(20, seed_base=900):
        with _kernels.use_backend("pure"):
            h = sg.build_digraph(g.n, g.edges)
            pure_blocks = sg.two_edge_biconnected_blocks(h)
            pure_sbc = sg.strongly_biconnected_components(h).components
        with _kernels.use_backend("c"):
            h = sg.build_digraph(g.n, g.edges)
            assert sg.two_edge_biconnected_blocks(h) == pure_blocks
            assert sg.strongly_biconnected_components(h).components == pure_sbc


@pytest.mark.parametrize("backend", BACKENDS)
def test_scc_matches_bruteforce(backend):
    with _kernels.use_backend(backend):
        for g in _random_digraphs(60, seed=33):
            assert sg.strongly_connected_components(g) == brute_scc_partition(g)


def _count_parts(adj, vertices):
    """Connected components of the graph induced on the set `vertices`."""
    count, left = 0, set(vertices)
    while left:
        part = {min(left)}
        frontier = list(part)
        while frontier:
            for w in adj[frontier.pop()]:
                if w in left and w not in part:
                    part.add(w)
                    frontier.append(w)
        left -= part
        count += 1
    return count


def _brute_bcc(adj, active):
    """Blocks, cut vertices and number of connected parts of the graph
    induced on the set `active`, straight from the definitions: blocks
    are the maximal sets of >= 2 vertices inducing a connected graph with
    no cut vertex, plus isolated vertices as singletons."""

    def biconnected(vs):
        return _count_parts(adj, vs) == 1 and (
            len(vs) == 2 or all(_count_parts(adj, vs - {x}) == 1 for x in vs)
        )

    members = sorted(active)
    found = [
        set(c)
        for size in range(len(members), 1, -1)
        for c in itertools.combinations(members, size)
        if biconnected(set(c))
    ]
    blocks = [c for c in found if not any(c < d for d in found)]
    blocks += [{v} for v in members if not any(w in active for w in adj[v])]
    whole = _count_parts(adj, active)
    cut = [v for v in members if _count_parts(adj, active - {v}) > whole]
    return sorted(tuple(sorted(b)) for b in blocks), cut, whole


def _random_subsets(count, seed):
    """(graph, active) pairs: each of `count` random digraphs with all of
    its vertices (range(n)) and with a random subset in a random order."""
    rng = sg.SplitMix64(seed)
    for g in _random_digraphs(count, seed=seed):
        sub = [v for v in range(g.n) if rng.below(4)]
        rng.shuffle(sub)
        yield g, range(g.n)
        yield g, sub


@pytest.mark.parametrize("backend", BACKENDS)
def test_bcc_blocks_match_bruteforce(backend):
    with _kernels.use_backend(backend):
        for g, active in _random_subsets(150, seed=36):
            u = sg.underlying(g)
            vertices = set(active)
            blocks = _kernels.bcc(u.n, u.adj, active)
            assert sorted(blocks) == _brute_bcc(u.adj, vertices)[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_bcc_connectivity_matches_bruteforce(backend):
    # What the callers read off the blocks: a disconnected set has two or
    # more, one block means connected with no cut vertex, and the cut
    # vertices are those in two or more blocks.
    with _kernels.use_backend(backend):
        for g, active in _random_subsets(60, seed=34):
            u = sg.underlying(g)
            vertices = set(active)
            _, cut, parts = _brute_bcc(u.adj, vertices)
            blocks = _kernels.bcc(u.n, u.adj, active)
            assert len(blocks) >= parts
            assert (len(blocks) == 1) == (parts == 1 and not cut)
            h, _ = sg.induced_subgraph(g, vertices)
            aps = sg.undirected_blocks(sg.underlying(h)).articulation_points
            old = sorted(vertices)
            assert [old[v] for v in aps] == cut


@pytest.mark.parametrize("backend", BACKENDS)
def test_biconnected_matches_the_block_count(backend):
    # The early-exit walk answers what the block count does: V - gone is
    # biconnected exactly when bcc lists at most one block of it.
    kern = _kernels._BACKENDS[backend]
    answers = set()
    for g, active in _random_subsets(400, seed=38):
        u = sg.underlying(g)
        gone = frozenset(range(g.n)).difference(active)
        answer = kern.biconnected(u.n, u.adj, gone)
        assert answer == (len(kern.bcc(u.n, u.adj, active)) <= 1)
        answers.add(answer)
    assert answers == {True, False}


# (n, edges, gone, answer): `biconnected` stops at the first block its
# search closes, and V - gone is biconnected exactly when that block
# holds every vertex left.
_BOW_TIE = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
_BICONNECTED_CASES = {
    # The least vertex is the cut vertex: the search closes its first
    # block at the root.
    "bow-tie-at-root": (5, _BOW_TIE, (), False),
    "bow-tie-one-wing-left": (5, _BOW_TIE, (3, 4), True),
    "bow-tie-a-pendant-left": (5, _BOW_TIE, (3,), False),
    "isolated-least-vertex": (4, [(1, 2), (2, 3), (3, 1)], (), False),
    "two-triangles": (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
                      (), False),
    "K2": (2, [(0, 1)], (), True),
    "K2-in-a-path": (3, [(0, 1), (1, 2)], (2,), True),
    "K1": (2, [(0, 1)], (0,), True),
    "empty": (3, [(0, 1), (1, 2), (2, 0)], (0, 1, 2), True),
    "cycle": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], (), True),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(_BICONNECTED_CASES))
def test_biconnected_explicit_cases(backend, case):
    n, edges, gone, expected = _BICONNECTED_CASES[case]
    kern = _kernels._BACKENDS[backend]
    adj = sg.underlying(sg.build_digraph(n, edges)).adj
    assert kern.biconnected(n, adj, gone) is expected
    left = [v for v in range(n) if v not in gone]
    assert (len(kern.bcc(n, adj, left)) <= 1) is expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "call",
    [
        "kern.biconnected(2, ((1,), (-1,)), ())",
        "kern.biconnected(2, ((1,), (2,)), ())",
        "kern.biconnected(3, ((1, 2), (0, -1), (0,)), [2])",
        "kern.biconnected(2, ((1,), (0,)), [-1])",
        "kern.biconnected(2, ((1,), (0,)), frozenset([2]))",
    ],
)
def test_biconnected_rejects_bad_ids(backend, call):
    # Out of range in a row it reads or in the mask: IndexError, and a
    # negative id is not read from the end.
    with pytest.raises(IndexError):
        eval(call, {"kern": _kernels._BACKENDS[backend]})


@pytest.mark.parametrize("backend", BACKENDS)
def test_bcc_reads_repeated_subset_vertices_once(backend):
    # A sub longer than n, so a buffer sized by sub rather than by n
    # would show.
    rng = sg.SplitMix64(37)
    with _kernels.use_backend(backend):
        for g in _random_digraphs(80, seed=37):
            u = sg.underlying(g)
            repeated = [rng.below(g.n) for _ in range(3 * g.n)]
            unique = list(dict.fromkeys(repeated))
            assert _kernels.bcc(u.n, u.adj, repeated) == (
                _kernels.bcc(u.n, u.adj, unique)
            )


def test_subset_restriction_equals_induced_subgraph():
    rng = sg.SplitMix64(5150)
    for g in _random_digraphs(60, seed=35):
        sub = sorted(v for v in range(g.n) if rng.below(2))
        h, old_to_new = sg.induced_subgraph(g, sub)
        count_sub, classes_sub = _kernels.scc_ids(g.n, g.out_adj, sub)
        count_ind, classes_ind = _kernels.scc_ids(h.n, h.out_adj, range(h.n))
        assert count_sub == count_ind
        # The classes agree through the re-index map, which keeps order.
        assert [tuple(old_to_new[v] for v in c) for c in classes_sub] == (
            classes_ind
        )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(deadline=None, max_examples=300)
@given(g=digraphs(max_n=12), data=st.data())
def test_scc_ids_returns_sorted_classes_by_least_member(backend, g, data):
    # Roots in a shuffled order with some vertices listed twice: each
    # class comes out once, sorted, the classes ordered by least member,
    # and they are the classes of the induced subgraph.
    base = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    extra = data.draw(st.lists(st.sampled_from(base))) if base else []
    sub = data.draw(st.permutations(base + extra))
    count, classes = _kernels._BACKENDS[backend].scc_ids(g.n, g.out_adj, sub)
    assert count == len(classes)
    assert all(c == tuple(sorted(c)) for c in classes)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    h, _ = sg.induced_subgraph(g, base)
    members = sorted(base)
    assert classes == [
        tuple(members[i] for i in c) for c in brute_scc_partition(h)
    ]


# Run in a child process, so that a crash fails one case instead of
# killing the test session.
_CHILD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("_ckern", sys.argv[1])
kern = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kern)
try:
    print(repr(eval(sys.argv[2], {"kern": kern})))
except (ValueError, IndexError, TypeError) as exc:
    print(type(exc).__name__)
"""


def _case(call, expected, name):
    """A case whose id writes its call without the vertex list, `name`,
    so the id stays the one it had before `sub` was required."""
    return pytest.param(call, expected, id=f"{name}-{expected}")


# Every call passes all of its vertices, so each case fails for the
# reason it names and not for a missing argument.
@needs_compiled
@pytest.mark.parametrize(
    "call,expected",
    [
        # List rows read like tuple rows.
        _case("kern.bcc(2, [[1], [0]], [0, 1])"
              " == kern.bcc(2, ((1,), (0,)), [0, 1])", "True",
              "kern.bcc(2, [[1], [0]]) == kern.bcc(2, ((1,), (0,)))"),
        _case("kern.bcc(2, [[1], [0]], [0, 1])", "[(0, 1)]",
              "kern.bcc(2, [[1], [0]])"),
        ("kern.scc_ids(3, [[1], [2], [0]], [2, 0, 1])"
         " == kern.scc_ids(3, ((1,), (2,), (0,)), [2, 0, 1])", "True"),
        _case("kern.bcc(2, ((1,), (5,)), [0, 1])", "IndexError",
              "kern.bcc(2, ((1,), (5,)))"),
        ("kern.scc_ids(2, ((1,), (0,)), [0, 7])", "IndexError"),
        _case("kern.bcc(2, ((1,), (0.0,)), [0, 1])", "TypeError",
              "kern.bcc(2, ((1,), (0.0,)))"),
        ("kern.scc_ids(2, ((1,), (0,)), ['0'])", "TypeError"),
        _case("kern.scc_ids(2, (1, 0), [0, 1])", "TypeError",
              "kern.scc_ids(2, (1, 0))"),
        _case("kern.bcc(3, ((1,), (0,)), [0, 1, 2])", "ValueError",
              "kern.bcc(3, ((1,), (0,)))"),
        _case("kern.scc_ids(-1, (), [])", "ValueError",
              "kern.scc_ids(-1, ())"),
    ],
)
def test_compiled_kernels_reject_bad_input(call, expected):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, _kernels._ckern.__file__, call],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, (
        f"{call} ended the child with status {proc.returncode}: {proc.stderr}"
    )
    assert proc.stdout.strip() == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "call",
    [
        pytest.param("kern.scc_ids(2, ((1,), (-1,)), [0, 1])",
                     id="kern.scc_ids(2, ((1,), (-1,)))"),
        "kern.scc_ids(2, ((1,), (0,)), [-1, 0])",
        pytest.param("kern.bcc(2, ((1,), (-1,)), [0, 1])",
                     id="kern.bcc(2, ((1,), (-1,)))"),
        "kern.bcc(2, ((1,), (0,)), [-1, 0])",
        "kern.bcc(3, ((1,), (0, -1), (1,)), [0, 1, -1])",
    ],
)
def test_kernels_reject_negative_ids(backend, call):
    # List indexing would read a negative id from the end.
    with pytest.raises(IndexError):
        eval(call, {"kern": _kernels._BACKENDS[backend]})


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernels_require_a_vertex_list(backend):
    # A whole-graph call passes range(n); there is no default.
    with _kernels.use_backend(backend):
        for kern in (_kernels._BACKENDS[backend], _kernels):
            with pytest.raises(TypeError):
                kern.scc_ids(2, ((1,), (0,)))
            with pytest.raises(TypeError):
                kern.bcc(2, ((1,), (0,)))


def _check_pure_kernels_against_networkx(g, sub):
    """The pure kernels on g, or on its underlying graph, restricted to
    the vertex list `sub`, against networkx on the induced subgraph:
    `scc_ids` classes, `bcc` blocks (networkx lists no isolated vertex),
    and `biconnected` with every vertex outside `sub` gone."""
    active = set(sub)
    count, classes = pure.scc_ids(g.n, g.out_adj, sub)
    assert count == len(classes)
    d = nx.DiGraph(g.edges)
    d.add_nodes_from(range(g.n))
    expected = nx.strongly_connected_components(d.subgraph(active))
    assert classes == sorted(tuple(sorted(c)) for c in expected)

    u = sg.underlying(g)
    h = nx.Graph(u.edges)
    h.add_nodes_from(range(u.n))
    h = h.subgraph(active)
    expected = [tuple(sorted(b)) for b in nx.biconnected_components(h)]
    expected += [(v,) for v in h if not h[v]]
    assert sorted(pure.bcc(u.n, u.adj, sub)) == sorted(expected)
    gone = [v for v in range(g.n) if v not in active]
    assert pure.biconnected(u.n, u.adj, gone) == (len(expected) <= 1)


@pytest.mark.parametrize(
    "g",
    [directed_cycle(3000), ear_graph(7, 3000, ears=(3, 8))],
    ids=["cycle-3000", "long-ears-3000"],
)
def test_pure_kernels_match_networkx_at_depth(g):
    # Searches thousands of vertices deep on a host with no compiled
    # backend to compare with: every vertex, every vertex but two in a
    # shuffled order, and a shuffled half.
    rng = random.Random(g.n)
    shuffled = rng.sample(range(g.n), g.n)
    for sub in (range(g.n), shuffled[2:], shuffled[: g.n // 2]):
        _check_pure_kernels_against_networkx(g, sub)


@settings(deadline=None, max_examples=200)
@given(digraphs(max_n=14), st.data())
def test_pure_kernels_match_networkx(g, data):
    sub = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    _check_pure_kernels_against_networkx(g, sub)

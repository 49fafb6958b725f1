"""Backend parity and brute-force validation of the traversal kernels."""

import itertools
import subprocess
import sys

import pytest

import sbgraph as sg
from sbgraph import _kernels
from helpers import brute_scc_partition, random_sb_corpus

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
            assert sorted(map(tuple, blocks)) == _brute_bcc(u.adj, vertices)[0]


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
        count_sub, ids_sub = _kernels.scc_ids(g.n, g.out_adj, sub)
        count_ind, ids_ind = _kernels.scc_ids(h.n, h.out_adj, range(h.n))
        assert count_sub == count_ind
        # partitions agree through the re-index map
        pairs = {(ids_sub[v], ids_ind[old_to_new[v]]) for v in sub}
        assert len({a for a, _ in pairs}) == len(pairs)
        assert len({b for _, b in pairs}) == len(pairs)


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
        _case("kern.bcc(2, [[1], [0]], [0, 1])", "[[0, 1]]",
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

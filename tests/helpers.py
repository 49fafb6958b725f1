"""Shared graph builders and strategies for the test suite."""

import itertools
import os
import pathlib
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np

import sbgraph as sg
from sbgraph.blocks import _co_membership, _max_cliques, _neighbour_sets
from sbgraph.connectivity import canonical_family


def c3():
    return sg.build_digraph(3, [(0, 1), (1, 2), (2, 0)])


def directed_cycle(n):
    return sg.build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def bidirected_complete(n):
    return sg.build_digraph(
        n, [(a, b) for a in range(n) for b in range(n) if a != b]
    )


def bidirected_cycle(n):
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(i, j), (j, i)]
    return sg.build_digraph(n, edges)


def two_triangles():
    """Two directed triangles sharing vertex 2."""
    return sg.build_digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


def single_arc():
    return sg.build_digraph(2, [(0, 1)])


def one_based(*ids):
    """Map 1-based vertex labels to the fixture files' 0-based ids."""
    return tuple(sorted(i - 1 for i in ids))


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


@st.composite
def digraphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = all_pairs(n)
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return sg.build_digraph(n, edges)


def random_sb_corpus(count, seed_base=0, nmin=3, nmax=8, p=0.6):
    """Deterministic list of strongly biconnected test graphs."""
    graphs = []
    for i in range(count):
        n = nmin + i % (nmax - nmin + 1)
        graphs.append(sg.gen_random_sb(n, p, seed_base + i))
    return graphs


def brute_connected_components(n, und_edges, skip=None):
    """Reference component count by naive union-find, ignoring `skip`."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    alive = [v for v in range(n) if v != skip]
    for a, b in und_edges:
        if a == skip or b == skip:
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in alive})


def brute_scc_partition(g):
    """Reference SCC partition via reachability closure (small n only)."""
    reach = [set([v]) for v in range(g.n)]
    for v in range(g.n):
        stack = [v]
        while stack:
            x = stack.pop()
            for y in g.out_adj[x]:
                if y not in reach[v]:
                    reach[v].add(y)
                    stack.append(y)
    classes = []
    seen = set()
    for v in range(g.n):
        if v in seen:
            continue
        cls = sorted(w for w in range(g.n) if v in reach[w] and w in reach[v])
        classes.append(tuple(cls))
        seen.update(cls)
    classes.sort(key=lambda c: c[0])
    return classes


def overlaps_at_most(family, k):
    for a, b in itertools.combinations(family, 2):
        if len(set(a) & set(b)) > k:
            return False
    return True


def glued(a, b):
    """Disjoint union of a and b with a's last vertex identified with b's
    vertex 0: strongly connected but not strongly biconnected when both
    are strongly connected with at least two vertices."""
    shift = a.n - 1
    edges = list(a.edges) + [(t + shift, h + shift) for t, h in b.edges]
    return sg.build_digraph(a.n + b.n - 1, edges)


@st.composite
def strongly_connected_digraphs(draw, min_n=1, max_n=8):
    """A drawn digraph restricted to its largest strongly connected
    component (the first such by smallest member)."""
    g = draw(digraphs(min_n=min_n, max_n=max_n))
    classes = sg.strongly_connected_components(g)
    largest = max(classes, key=len) if classes else ()
    return sg.induced_subgraph(g, largest)[0]


# Definitional references for the probe filters of resilience and blocks:
# each probes every single deletion and copies the graph for it.


def reference_b_bridges(g):
    """Arcs whose deletion leaves g not strongly biconnected."""
    return [
        e for e in sorted(g.edges)
        if not sg.is_strongly_biconnected(sg.remove_edge(g, e))
    ]


def reference_b_articulation_points(g):
    """Vertices whose deletion leaves g not strongly biconnected."""
    return tuple(
        v for v in range(g.n)
        if not sg.is_strongly_biconnected(sg.remove_vertex(g, v)[0])
    )


def reference_strong_bridges(g):
    """Arcs whose deletion leaves g not strongly connected."""
    return tuple(
        e for e in sorted(g.edges)
        if not sg.is_strongly_connected(sg.remove_edge(g, e))
    )


def reference_strong_articulation_points(g):
    """Vertices whose deletion leaves g not strongly connected."""
    return tuple(
        v for v in range(g.n)
        if not sg.is_strongly_connected(sg.remove_vertex(g, v)[0])
    )


def reference_edge_relation(g):
    """Pairs in one strongly biconnected component of G - e for every arc e."""
    n = g.n
    cells = np.ones((n, n), dtype=bool)
    for e in g.edges:
        h = sg.remove_edge(g, e)
        cells &= _co_membership(n, sg.strongly_biconnected_components(h).components)
    return cells


def twin_bridge_graph():
    """Strongly biconnected, with b-bridges both with an antiparallel twin,
    (2, 4) and (3, 2), and without one, (0, 1), (1, 3), (2, 0), (4, 1)."""
    return sg.build_digraph(
        5, [(0, 1), (1, 3), (2, 0), (2, 3), (2, 4), (3, 2), (4, 1), (4, 2)]
    )


def reference_vertex_relation(g):
    """Pairs in one strongly biconnected component of G - z for every z."""
    n = g.n
    cells = np.ones((n, n), dtype=bool)
    for z in range(n):
        h, _ = sg.remove_vertex(g, z)
        survivors = [v for v in range(n) if v != z]
        components = [
            [survivors[v] for v in comp]
            for comp in sg.strongly_biconnected_components(h).components
        ]
        cells &= _co_membership(n, components, force=z)
    np.fill_diagonal(cells, True)
    return cells


def reference_two_edge_blocks(g):
    """Classes of "same SCC under every single-arc deletion", size >= 2."""
    n = g.n
    labels = [0] * n
    for e in g.edges:
        classes = sg.strongly_connected_components(sg.remove_edge(g, e))
        ids = {v: i for i, c in enumerate(classes) for v in c}
        relabel = {}
        for v in range(n):
            labels[v] = relabel.setdefault((labels[v], ids[v]), len(relabel))
    groups = {}
    for v in range(n):
        groups.setdefault(labels[v], []).append(v)
    return canonical_family(c for c in groups.values() if len(c) >= 2)


def reference_two_strong_blocks(g):
    """Maximal cliques of "same SCC of G - w for every other w"."""
    n = g.n
    cells = np.ones((n, n), dtype=bool)
    for z in range(n):
        h, _ = sg.remove_vertex(g, z)
        survivors = [v for v in range(n) if v != z]
        components = [
            [survivors[v] for v in c] for c in sg.strongly_connected_components(h)
        ]
        cells &= _co_membership(n, components, force=z)
    np.fill_diagonal(cells, True)
    return canonical_family(_max_cliques(_neighbour_sets(cells)))


# Address-space cap for run_cli_capped: far above what the CLI needs.
CAPPED_BYTES = 2 << 30


def run_cli_capped(argv, stdin=""):
    """Run the CLI in a child process whose address space is capped at
    CAPPED_BYTES, so that an unbounded allocation fails the calling test
    instead of exhausting the host.  Returns the CompletedProcess."""
    code = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({CAPPED_BYTES}, {CAPPED_BYTES})); "
        "from sbgraph.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = str(pathlib.Path(sg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", code, *argv], input=stdin, env=env,
        capture_output=True, text=True, timeout=120,
    )

"""Shared graph builders and strategies for the test suite."""

import importlib.util
import itertools
import os
import pathlib
import random
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np

import sbgraph as sg
from sbgraph import _kernels
from sbgraph.connectivity import canonical_family, maximal_subsets, scc_classes
from sbgraph.resilience import _strong_cuts


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name, path):
    """The Python file at `path` under the checkout, run as module `name`."""
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_gen():
    """perfbench/gen.py, the benchmark's input generator, as a module."""
    return _load("perfbench_gen", "perfbench/gen.py")


def scale_run():
    """scale/run.py, the scale harness, as a module.  Its import puts the
    checkout's `src` and `perfbench` directories on sys.path."""
    return _load("scale_run", "scale/run.py")


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


def ear_graph(seed, n, ears=(1, 8), chords=None):
    """A strongly biconnected digraph on n vertices: a directed cycle,
    then directed ears of ears[0]..ears[1] new vertices between two
    distinct old ones, then `chords` (default n // 10) draws of a random
    arc.  Each ear keeps G strongly connected and H biconnected."""
    rng = random.Random(seed)
    k = min(n, rng.randint(3, 9))
    arcs = {(i, (i + 1) % k) for i in range(k)}
    while k < n:
        inner = min(rng.randint(*ears), n - k)
        u, v = rng.sample(range(k), 2)
        path = [u, *range(k, k + inner), v]
        arcs.update(zip(path, path[1:]))
        k += inner
    for _ in range(n // 10 if chords is None else chords):
        u, v = rng.sample(range(n), 2)
        arcs.add((u, v))
    return sg.build_digraph(n, sorted(arcs))


def bidirected(g):
    """g with the reverse of every arc added."""
    return sg.build_digraph(g.n, set(g.edges) | {(h, t) for t, h in g.edges})


def reference_sbc(g):
    """Strongly biconnected components by the definition: test every
    vertex subset of two or more members, drop those inside another
    qualifying subset, cover the rest with singletons, order canonically."""
    n = g.n
    qualifying = []
    for mask in range(1, 1 << n):
        sub = [v for v in range(n) if mask >> v & 1]
        if len(sub) >= 2 and sg.is_strongly_biconnected(
            sg.induced_subgraph(g, sub)[0]
        ):
            qualifying.append(set(sub))
    maximal = [s for s in qualifying if not any(s < t for t in qualifying)]
    covered = set().union(*maximal)
    singletons = [{v} for v in range(n) if v not in covered]
    return tuple(canonical_family(maximal + singletons))


# Dense references for the relations of blocks: n*n boolean tables, a
# per-pair relation read straight off probes, and a set-based clique
# search, none of which shares code with the library's block reader.


def co_membership(n, components, force=None):
    """Boolean matrix of pairwise component co-membership; rows/columns in
    `force` are set wholesale (used for the deleted vertex, which never
    constrains pairs it is not part of)."""
    m = np.zeros((n, n), dtype=bool)
    for comp in components:
        idx = np.fromiter(comp, dtype=np.intp, count=len(comp))
        m[np.ix_(idx, idx)] = True
    if force is not None:
        m[force, :] = True
        m[:, force] = True
    return m


def dense(relation):
    """A RelationMatrix as an n*n boolean table, read through `co`."""
    n = relation.n
    return np.array(
        [[relation.co(x, y) for y in range(n)] for x in range(n)],
        dtype=bool,
    ).reshape(n, n)


def probe_relation(n, probes):
    """The pairs that every probe (z, parts) keeps together, as an n*n
    boolean table, pair by pair: at each probe one end is z, or some
    listed part holds both, or neither end is listed (both lie in the
    implicit part)."""
    probes = [(z, [set(p) for p in parts]) for z, parts in probes]
    probes = [(z, parts, set().union(*parts)) for z, parts in probes]

    def together(x, y, z, parts, listed):
        return (
            z in (x, y)
            or any(x in p and y in p for p in parts)
            or (x not in listed and y not in listed)
        )

    return np.array(
        [[all(together(x, y, *probe) for probe in probes)
          for y in range(n)] for x in range(n)],
        dtype=bool,
    ).reshape(n, n)


def neighbour_sets(cells):
    """Per vertex, the other vertices related to it in both directions."""
    sym = cells & cells.T
    np.fill_diagonal(sym, False)
    return [frozenset(np.flatnonzero(row).tolist()) for row in sym]


def max_cliques_of_sets(neighbours):
    """Maximal cliques of size >= 2, Bron-Kerbosch with pivoting on
    neighbour sets.  The pivot is the smallest vertex of p | x with the
    most neighbours in p."""
    out = []

    def expand(r, p, x):
        if not p and not x:
            if len(r) >= 2:
                out.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & neighbours[u]))
        for v in sorted(p - neighbours[pivot]):
            expand(r | {v}, p & neighbours[v], x & neighbours[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(len(neighbours))), set())
    return out


def reference_blocks(n, probes):
    """The block reader as it was before its sets were indexed, kept as
    the reference for `blocks._blocks`: the maximal sets of two or more
    vertices that every probe keeps inside one part, its deleted vertex
    aside.  It scans every current set at every probe, and its last
    filter compares every pair of sets."""
    sets = [frozenset(range(n))] if n >= 2 else []
    for z, parts in probes:
        owner = {}
        for i, part in enumerate(parts):
            for v in part:
                owner.setdefault(v, []).append(i)
        listed = set(owner)
        kept = []
        for s in sets:
            if s.isdisjoint(listed):
                kept.append(s)
                continue
            spare = [z] if z in s else []
            pieces = {}
            for v in s & listed:
                for i in owner[v]:
                    pieces.setdefault(i, spare.copy()).append(v)
            pieces = [s - listed, *map(frozenset, pieces.values())]
            kept += (piece for piece in pieces if len(piece) >= 2)
        sets = kept
    out = []
    for s in sorted(sets, key=len, reverse=True):
        if not any(s <= t for t in out):
            out.append(s)
    return out


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


def reference_cut_report(g):
    """The cut report of strongly biconnected g by one biconnected-
    components call on H - x for every vertex x, H the underlying graph:
    x is a b-articulation point when it is a strong articulation point or
    H - x is not biconnected, and a twinless arc is a b-bridge when its
    edge is a 2-vertex block of some H - x.  O(nm)."""
    n = g.n
    strong_arcs, strong_points = _strong_cuts(g)
    und = sg.underlying(g)
    points = set(strong_points)
    split = set()
    for x in range(n):
        rest = [v for v in range(n) if v != x]
        blocks = _kernels.bcc(n, und.adj, rest)
        if len(blocks) > 1:
            points.add(x)
        # H - x may be a lone edge (n = 3), which is a bridge but leaves
        # H - x biconnected; collect 2-vertex blocks either way.
        split.update(tuple(b) for b in blocks if len(b) == 2)
    strong = set(strong_arcs)
    bridges = tuple(
        (a, b)
        for a, b in sorted(g.edges)
        if (a, b) in strong
        or (not g.has_edge(b, a) and (min(a, b), max(a, b)) in split)
    )
    return sg.CutReport(
        b_bridges=bridges,
        b_articulation_points=tuple(sorted(points)),
        strong_bridges=strong_arcs,
        strong_articulation_points=strong_points,
    )


def _candidate_regions(g):
    """Disjoint vertex regions that hold every vertex set of three or more
    members whose induced subgraph has no b-bridge (or no b-articulation
    point).  Each member of such a set has two or more in- and out-arcs
    inside it, so "drop vertices of internal degree < 2, then split along
    SCCs", repeated, never discards one."""
    regions = []
    stack = [list(range(g.n))]
    while stack:
        sub = stack.pop()
        members = set(sub)
        changed = True
        while changed:
            changed = False
            for v in list(members):
                outd = sum(1 for w in g.out_adj[v] if w in members)
                ind = sum(1 for w in g.in_adj[v] if w in members)
                if outd < 2 or ind < 2:
                    members.discard(v)
                    changed = True
        if len(members) < 3:
            continue
        core = sorted(members)
        classes = scc_classes(g.n, g.out_adj, core)
        if len(classes) == 1 and len(core) == len(sub):
            regions.append(core)
            continue
        for c in classes:
            if len(c) >= 3:
                stack.append(c)
    regions.sort(key=lambda c: c[0])
    return regions


def _reference_components(g, predicate):
    """Maximal vertex subsets of three or more members whose induced
    subgraph satisfies `predicate`, by trying every subset of each
    candidate region, largest first.  Exponential."""
    found = maximal_subsets(
        _candidate_regions(g), 3,
        lambda c: predicate(sg.induced_subgraph(g, c)[0]),
    )
    return canonical_family(found)


def reference_components_2esb(g):
    """Maximal 2-edge-strongly-biconnected vertex sets by the definition."""
    return _reference_components(g, sg.is_2_edge_strongly_biconnected)


def reference_components_2vsb(g):
    """Maximal 2-vertex-strongly-biconnected vertex sets by the
    definition."""
    return _reference_components(g, sg.is_2_vertex_strongly_biconnected)


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
        cells &= co_membership(n, sg.strongly_biconnected_components(h).components)
    return cells


def twin_bridge_graph():
    """Strongly biconnected, with b-bridges both with an antiparallel twin,
    (2, 4) and (3, 2), and without one, (0, 1), (1, 3), (2, 0), (4, 1)."""
    return sg.build_digraph(
        5, [(0, 1), (1, 3), (2, 0), (2, 3), (2, 4), (3, 2), (4, 1), (4, 2)]
    )


def root_cut_graph():
    """Strongly biconnected on 6 vertices.  Vertex 5 is a strong
    articulation point whose deletion cuts off vertex 1 alone; neither 1
    nor 5 lies in a separation pair of H, the underlying graph, but
    H - {1, 5} is the path 0-2-4-3."""
    return sg.build_digraph(6, [
        (0, 2), (0, 5), (1, 0), (1, 2), (1, 3), (2, 0), (2, 4), (3, 4),
        (4, 2), (4, 3), (5, 1), (5, 3),
    ])


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
        cells &= co_membership(n, components, force=z)
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
        cells &= co_membership(n, components, force=z)
    np.fill_diagonal(cells, True)
    return canonical_family(max_cliques_of_sets(neighbour_sets(cells)))


# Address-space cap for run_cli_capped: far above what the CLI needs.
CAPPED_BYTES = 2 << 30


def run_capped(code, argv=(), stdin=""):
    """Run Python `code` in a child process whose address space is capped
    at CAPPED_BYTES, so that an unbounded allocation fails the calling
    test instead of exhausting the host.  Returns the CompletedProcess."""
    cap = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({CAPPED_BYTES}, {CAPPED_BYTES}))\n"
    )
    src = str(pathlib.Path(sg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", cap + code, *argv], input=stdin, env=env,
        capture_output=True, text=True, timeout=120,
    )


def run_cli_capped(argv, stdin=""):
    """Run the CLI under run_capped's cap."""
    code = "from sbgraph.cli import main; sys.exit(main(sys.argv[1:]))"
    return run_capped(code, argv, stdin)

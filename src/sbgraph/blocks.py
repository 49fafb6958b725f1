"""2-block families of strongly (bi)connected digraphs.

The central operation computes 2-edge-biconnected blocks: maximal vertex
sets whose pairs stay inside one strongly biconnected component under
every single-arc deletion.  It works on a boolean pair relation: clear
L[x, y] whenever some b-bridge deletion separates x from y, keep the pairs
related in both directions as an undirected helper graph, and read the
blocks of that helper graph off as the answer.  A maximal-clique
enumeration over the same relation serves as the independent oracle.

2-strong-biconnected blocks (single-vertex deletions, overlaps of up to
two vertices) and the coarser 2-edge / 2-strong blocks intersect the same
kind of relation over vertex or arc deletions.  One loop, `_intersect`,
builds the edge, vertex and 2-strong relations: it ANDs in the
co-membership matrix of the parts each probed deletion leaves (strongly
biconnected components, or SCCs for 2-strong blocks).  A probe that
leaves a single part relates every pair, so the loop skips it without
building its n*n matrix.  The 2-edge blocks are a partition and refine
vertex labels instead.

Each family probes only the deletions that can change its answer, and
each probe set is exact:

- 2-edge-biconnected blocks probe the b-bridges and 2-strong-biconnected
  blocks the b-articulation points: any other deletion leaves G strongly
  biconnected, so what remains is one strongly biconnected component and
  relates every pair.
- 2-edge blocks probe the strong bridges and 2-strong blocks the strong
  articulation points, whether or not G is strongly biconnected: any
  other deletion leaves G strongly connected, one SCC, which relates
  every pair.

`resilience` finds all four sets without rechecking deletions: the strong
ones from the dominator trees of G and its reverse, the b-sets from one
biconnected-components sweep over H - x (see its docstring for the
characterizations).  `analyze` computes them once and hands each family
its set.

Every probe masks the deleted element out of the graph's adjacency
instead of copying the graph: a vertex probe passes V - z as the active
subset, and an arc probe drops one entry from one out-adjacency row (and
the edge from the two rows of the underlying graph when the arc has no
antiparallel twin).  The underlying graph is built once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .connectivity import (
    canonical_family,
    is_strongly_connected,
    scc_classes,
)
from .errors import GuardError, NotStronglyConnectedError
from .graph import UndirectedGraph, underlying
# Unused here; bound because the benchmark's tracer test
# (perfbench/test_perfbench.py) reads blocks.remove_edge.
from .graph import remove_edge  # noqa: F401
from .resilience import (
    _require_sb,
    _strong_cuts,
    b_articulation_points,
    b_bridges,
)
from .sbc import masked_sbc


def _require_sc(g, op):
    if not is_strongly_connected(g):
        raise NotStronglyConnectedError(
            f"{op} requires a strongly connected input graph"
        )


@dataclass(frozen=True)
class RelationMatrix:
    """Boolean n*n table; cells[x, y] says x and y survive every probed
    deletion inside one strongly biconnected component."""

    n: int
    cells: np.ndarray

    def co(self, x, y):
        return bool(self.cells[x, y])


def _co_membership(n, components, force=None):
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


def _intersect(n, probes, parts):
    """Pairs that share a part after every deletion in `probes`.

    parts(p) returns the parts left by deletion p and the deleted vertex,
    or None for an arc.  A probe that leaves a single part relates every
    pair, so it is skipped without building its matrix.
    """
    cells = np.ones((n, n), dtype=bool)
    for p in probes:
        components, force = parts(p)
        if len(components) > 1:
            cells &= _co_membership(n, components, force)
    return cells


def _without_arc(adj, tail, head):
    """adj with head dropped from row tail; the other rows are shared."""
    rows = list(adj)
    rows[tail] = tuple(w for w in adj[tail] if w != head)
    return rows


def edge_relation(g, *, _bridges=None):
    """Pair relation under single-arc deletions.

    L[x, y] is cleared iff some b-bridge deletion puts x and y into
    different strongly biconnected components; arcs that are not b-bridges
    cannot separate anything and are skipped.  `_bridges`, when given, is
    b_bridges(g) computed by the caller.
    """
    _require_sb(g, "edge_relation")
    bridges = b_bridges(g) if _bridges is None else _bridges
    n = g.n
    und_adj = underlying(g).adj

    def parts(bridge):
        tail, head = bridge
        out_adj = _without_arc(g.out_adj, tail, head)
        h_adj = und_adj
        if not g.has_edge(head, tail):
            # Without a twin arc the underlying edge goes too.
            h_adj = _without_arc(_without_arc(und_adj, tail, head), head, tail)
        return masked_sbc(n, out_adj, h_adj, range(n)).components, None

    return RelationMatrix(n=n, cells=_intersect(n, bridges, parts))


def helper_graph(relation):
    """Undirected graph joining the pairs related in both directions."""
    rows = _neighbours(relation.cells)
    return UndirectedGraph(
        relation.n, [(a, b) for a, row in enumerate(rows) for b in row if a < b]
    )


def two_edge_biconnected_blocks(g, *, _bridges=None):
    """All 2-edge-biconnected blocks, canonically ordered.

    No b-bridges means every pair stays related, so the whole vertex set
    is the single block; otherwise the blocks of the helper graph built
    from the edge relation are the answer.  `_bridges`, when given, is
    b_bridges(g) computed by the caller.
    """
    _require_sb(g, "two_edge_biconnected_blocks")
    if g.n < 2:
        return []
    bridges = b_bridges(g) if _bridges is None else _bridges
    if not bridges:
        return [tuple(range(g.n))]
    relation = edge_relation(g, _bridges=bridges)
    # The blocks of helper_graph(relation), read off its adjacency.
    blocks, _aps, _connected = _kernels.bcc(g.n, _neighbours(relation.cells))
    return canonical_family(b for b in blocks if len(b) >= 2)


def _neighbours(cells):
    """Per vertex, the other vertices related to it in both directions,
    as an ascending tuple (the row type the compiled kernels read)."""
    sym = cells & cells.T
    np.fill_diagonal(sym, False)
    return [tuple(np.flatnonzero(row).tolist()) for row in sym]


def _neighbour_sets(cells):
    return [frozenset(row) for row in _neighbours(cells)]


def _max_cliques(neighbours):
    """Maximal cliques of size >= 2, Bron-Kerbosch with pivoting.

    Depth-first with an explicit stack of (r, p, x, branches) frames, so
    a clique of any size cannot overflow the interpreter stack.  The pivot
    is the smallest vertex of p | x with the most neighbours in p; a
    vertex whose degree bound cannot beat the best so far is not
    intersected.
    """
    out = []
    frames = []

    def enter(r, p, x):
        if not p and not x:
            if len(r) >= 2:
                out.append(tuple(sorted(r)))
            return
        best, pivot = -1, None
        for u in sorted(p | x):
            if min(len(neighbours[u]), len(p) - (u in p)) <= best:
                continue
            size = len(p & neighbours[u])
            if size > best:
                best, pivot = size, u
        frames.append((r, p, x, iter(sorted(p - neighbours[pivot]))))

    enter(set(), set(range(len(neighbours))), set())
    while frames:
        r, p, x, branches = frames[-1]
        v = next(branches, None)
        if v is None:
            frames.pop()
            continue
        enter(r | {v}, p & neighbours[v], x & neighbours[v])
        p.remove(v)
        x.add(v)
    return out


def oracle_two_edge_biconnected_blocks(g, guard=24):
    """Reference computation of the 2-edge-biconnected blocks: maximal
    cliques of the edge relation.  Exponential; guarded by n <= guard."""
    _require_sb(g, "oracle_two_edge_biconnected_blocks")
    if g.n > guard:
        raise GuardError(
            f"oracle_two_edge_biconnected_blocks requires n <= {guard}, got "
            f"n={g.n}; raise the guard explicitly to override"
        )
    relation = edge_relation(g)
    return canonical_family(_max_cliques(_neighbour_sets(relation.cells)))


def vertex_relation(g, *, _articulation_points=None):
    """Pair relation under single-vertex deletions: related pairs stay in
    one strongly biconnected component of G minus z for every other z.

    Only b-articulation points z are probed.  `_articulation_points`,
    when given, is b_articulation_points(g) computed by the caller.
    """
    _require_sb(g, "vertex_relation")
    n = g.n
    if _articulation_points is None:
        probes = b_articulation_points(g)
    else:
        probes = _articulation_points
    und_adj = underlying(g).adj

    def parts(z):
        survivors = [v for v in range(n) if v != z]
        return masked_sbc(n, g.out_adj, und_adj, survivors).components, z

    return RelationMatrix(n=n, cells=_intersect(n, probes, parts))


def two_strong_biconnected_blocks(g, *, _articulation_points=None):
    """All 2-strong-biconnected blocks: maximal cliques of size >= 2 of
    the vertex relation.  Distinct blocks may share up to two vertices,
    which rules out both partitioning and helper-graph blocking.
    `_articulation_points`, when given, is b_articulation_points(g)
    computed by the caller."""
    _require_sb(g, "two_strong_biconnected_blocks")
    relation = vertex_relation(g, _articulation_points=_articulation_points)
    return canonical_family(_max_cliques(_neighbour_sets(relation.cells)))


def two_edge_blocks(g, *, _bridges=None):
    """Maximal sets with two edge-disjoint paths both ways between every
    pair: equivalence classes of "same SCC under every single-arc
    deletion", filtered to size >= 2.

    Probes the strong bridges of g, or `_bridges` when given: the strong
    bridges computed by the caller.
    """
    _require_sc(g, "two_edge_blocks")
    n = g.n
    probes = _strong_cuts(g)[0] if _bridges is None else _bridges
    labels = [0] * n
    for tail, head in probes:
        count, ids = _kernels.scc_ids(n, _without_arc(g.out_adj, tail, head))
        if count <= 1:
            continue
        relabel = {}
        for v in range(n):
            key = (labels[v], ids[v])
            labels[v] = relabel.setdefault(key, len(relabel))
    groups = {}
    for v in range(n):
        groups.setdefault(labels[v], []).append(v)
    return canonical_family(c for c in groups.values() if len(c) >= 2)


def two_strong_blocks(g, *, _articulation_points=None):
    """Maximal sets whose pairs share an SCC of G minus w for every other
    vertex w: maximal cliques of size >= 2 of that relation.

    Probes the strong articulation points of g, or `_articulation_points`
    when given: the strong articulation points computed by the caller.
    """
    _require_sc(g, "two_strong_blocks")
    n = g.n
    if _articulation_points is None:
        probes = _strong_cuts(g)[1]
    else:
        probes = _articulation_points

    def parts(z):
        survivors = [v for v in range(n) if v != z]
        return scc_classes(n, g.out_adj, survivors), z

    cells = _intersect(n, probes, parts)
    return canonical_family(_max_cliques(_neighbour_sets(cells)))

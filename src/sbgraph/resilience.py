"""Single-failure resilience analysis.

b-bridges are arcs whose deletion destroys strong biconnectivity;
b-articulation points are vertices that do the same.  Both are found by
rechecking strong biconnectivity after each deletion, with the deleted
element masked out of the adjacency instead of copying the graph.

b_articulation_points rechecks every vertex.  b_bridges rechecks only
the arcs of a BFS out- and in-arborescence rooted at vertex 0 and the
twinless arcs whose underlying edge lies in the scan-first sparse
certificate F1 + F2 of Cheriyan, Kao and Thurimella (SIAM J. Comput.
1993): any other arc's deletion keeps both trees, so G stays strongly
connected, and keeps the underlying graph's biconnected spanning
certificate, so G stays strongly biconnected.

The 2-edge / 2-vertex strongly biconnected predicates and their maximal
components build on top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .connectivity import (
    _strongly_biconnected_minus_arc,
    _strongly_biconnected_subset,
    canonical_family,
    is_strongly_biconnected,
    scc_classes,
)
from .errors import GuardError, NotStronglyBiconnectedError
from .graph import induced_subgraph, underlying


def _require_sb(g, op):
    if not is_strongly_biconnected(g):
        raise NotStronglyBiconnectedError(
            f"{op} requires a strongly biconnected input graph"
        )


def _bfs_parents(n, adj):
    """BFS parent of every vertex reachable from vertex 0 (the root is its
    own parent), -1 for the others."""
    parent = [-1] * n
    if n:
        parent[0] = 0
        queue = [0]
        for v in queue:
            for w in adj[v]:
                if parent[w] == -1:
                    parent[w] = v
                    queue.append(w)
    return parent


def _spanning_arborescences(g):
    """Arcs of a BFS out-arborescence and a BFS in-arborescence of g, both
    rooted at vertex 0, and the set of vertices with a child in either.

    g must be strongly connected.  Deleting an arc outside both trees, or
    a vertex that is a leaf of both, leaves both trees spanning what
    remains, so the result stays strongly connected.  With two or more
    vertices the root has a child, so it is never a leaf.
    """
    out_parent = _bfs_parents(g.n, g.out_adj)
    in_parent = _bfs_parents(g.n, g.in_adj)
    arcs = set()
    for v in range(1, g.n):
        arcs.add((out_parent[v], v))
        arcs.add((v, in_parent[v]))
    inner = set(out_parent[1:]) | set(in_parent[1:])
    return arcs, inner


def _scan_first_forest(u, skip):
    """Edges (min, max) of a breadth-first spanning forest of the
    undirected graph u minus the edges in `skip`."""
    seen = bytearray(u.n)
    forest = set()
    for root in range(u.n):
        if seen[root]:
            continue
        seen[root] = 1
        queue = [root]
        for v in queue:
            for w in u.adj[v]:
                if seen[w]:
                    continue
                e = (v, w) if v < w else (w, v)
                if e in skip:
                    continue
                seen[w] = 1
                forest.add(e)
                queue.append(w)
    return forest


def _sparse_certificate(u):
    """F1 + F2: a scan-first forest F1 of u and one F2 of u - F1.  When u
    is biconnected, so is this spanning subgraph (Cheriyan, Kao and
    Thurimella 1993)."""
    f1 = _scan_first_forest(u, frozenset())
    return f1 | _scan_first_forest(u, f1)


def _b_bridge_candidates(g, und):
    """Arcs of strongly biconnected g, in canonical order, whose deletion
    can break strong biconnectivity; `und` must be underlying(g)."""
    tree_arcs, _ = _spanning_arborescences(g)
    certificate = _sparse_certificate(und)
    return [
        (a, b)
        for a, b in sorted(g.edges)
        if (a, b) in tree_arcs
        or (not g.has_edge(b, a) and (min(a, b), max(a, b)) in certificate)
    ]


def b_bridges(g):
    """Arcs whose deletion leaves a graph that is not strongly biconnected,
    in canonical (tail, head) order.

    Only the arcs `_b_bridge_candidates` keeps are rechecked; the arc is
    masked out of the adjacency instead of copying the graph.
    """
    _require_sb(g, "b_bridges")
    und = underlying(g)
    return [
        e
        for e in _b_bridge_candidates(g, und)
        if not _strongly_biconnected_minus_arc(g, und, e)
    ]


def b_articulation_points(g):
    """Vertices whose deletion leaves a graph that is not strongly
    biconnected."""
    _require_sb(g, "b_articulation_points")
    und = underlying(g)
    return tuple(
        w
        for w in range(g.n)
        if not _strongly_biconnected_subset(
            g, und, [v for v in range(g.n) if v != w]
        )
    )


@dataclass(frozen=True)
class CutReport:
    """All single-failure weak points of one graph."""

    b_bridges: tuple
    b_articulation_points: tuple


def cut_report(g):
    return CutReport(
        b_bridges=tuple(b_bridges(g)),
        b_articulation_points=b_articulation_points(g),
    )


def is_2_edge_strongly_biconnected(g):
    """More than two vertices, strongly biconnected, and no b-bridges."""
    if g.n <= 2 or not is_strongly_biconnected(g):
        return False
    und = underlying(g)
    return all(
        _strongly_biconnected_minus_arc(g, und, e)
        for e in _b_bridge_candidates(g, und)
    )


def is_2_vertex_strongly_biconnected(g):
    """More than two vertices, strongly biconnected, and no b-articulation
    points."""
    if g.n <= 2 or not is_strongly_biconnected(g):
        return False
    und = underlying(g)
    return all(
        _strongly_biconnected_subset(
            g, und, [v for v in range(g.n) if v != w]
        )
        for w in range(g.n)
    )


def _candidate_regions(g):
    """Disjoint vertex regions that must contain every component with
    internal in- and out-degrees >= 2.

    Any vertex subset C with |C| > 2 whose induced subgraph has no
    b-bridge (or no b-articulation point) gives each member at least two
    internal out-arcs and two internal in-arcs, so iterating "drop
    vertices of internal degree < 2, then split along SCCs" never discards
    a member of a valid component.
    """
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


def _maximal_components(g, guard, predicate, op):
    if g.n > guard:
        raise GuardError(
            f"{op} requires n <= {guard}, got n={g.n}; raise the guard "
            "explicitly to override"
        )
    found = []
    for region in _candidate_regions(g):
        accepted = []
        for size in range(len(region), 2, -1):
            for comb in itertools.combinations(region, size):
                cs = set(comb)
                if any(cs <= a for a in accepted):
                    continue
                h, _ = induced_subgraph(g, comb)
                if predicate(h):
                    accepted.append(cs)
                    found.append(comb)
    return canonical_family(found)


def components_2esb(g, guard=12):
    """Maximal vertex subsets inducing 2-edge-strongly-biconnected
    subgraphs.  Enumeration-based and guarded; regions that cannot host a
    component are pruned first."""
    return _maximal_components(
        g, guard, is_2_edge_strongly_biconnected, "components_2esb"
    )


def components_2vsb(g, guard=12):
    """Maximal vertex subsets inducing 2-vertex-strongly-biconnected
    subgraphs.  Enumeration-based and guarded."""
    return _maximal_components(
        g, guard, is_2_vertex_strongly_biconnected, "components_2vsb"
    )

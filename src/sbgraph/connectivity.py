"""Classic connectivity primitives.

Strongly connected components for digraphs; blocks, articulation points
and bridges for undirected graphs; and the strongly-biconnected predicate
combining the two.  Biconnectivity follows the "connected with no cut
vertex" convention, so K1 and K2 both count as biconnected.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .graph import underlying


def canonical_family(sets):
    """Sort a family of vertex sets: members ascending, then by
    (smallest member, size, lexicographic)."""
    fam = [tuple(sorted(s)) for s in sets]
    fam.sort(key=lambda b: (b[0], len(b), b))
    return fam


def scc_classes(n, adj, sub):
    """Strongly connected classes of the subgraph induced on `sub`, as
    lists in `sub` order, ordered by first member."""
    _, ids = _kernels.scc_ids(n, adj, sub)
    groups = {}
    for v in sub:
        groups.setdefault(ids[v], []).append(v)
    return sorted(groups.values(), key=lambda c: c[0])


def strongly_connected_components(g):
    """Partition of V into maximal strongly connected classes,
    ordered by smallest member."""
    return [tuple(c) for c in scc_classes(g.n, g.out_adj, range(g.n))]


def is_strongly_connected(g):
    """True when the graph has at most one SCC (trivially true for n <= 1)."""
    if g.n <= 1:
        return True
    ncomp, _ = _kernels.scc_ids(g.n, g.out_adj)
    return ncomp == 1


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (biconnected components as vertex sets), articulation points
    and bridges of an undirected graph.  Isolated vertices appear as
    singleton blocks so the blocks always cover V."""

    blocks: tuple
    articulation_points: tuple
    bridges: tuple


def undirected_blocks(u):
    """Biconnected components of an undirected graph.

    A bridge shows up as a 2-vertex block; the bridges field lists exactly
    those edges.
    """
    raw, aps, _connected = _kernels.bcc(u.n, u.adj)
    blocks = canonical_family(raw)
    bridges = tuple(b for b in blocks if len(b) == 2)
    return BlockDecomposition(
        blocks=tuple(blocks),
        articulation_points=tuple(aps),
        bridges=bridges,
    )


def is_biconnected(u):
    """Connected with no cut vertex; K1 and K2 qualify, as does the empty
    graph by convention."""
    raw, _aps, connected = _kernels.bcc(u.n, u.adj)
    return connected and len(raw) <= 1


def is_strongly_biconnected(g):
    """Strongly connected with a biconnected underlying graph.

    The verdict is computed once per graph and kept on it.
    """
    sb = g._sb
    if sb is None:
        sb = g._sb = is_strongly_connected(g) and is_biconnected(underlying(g))
    return sb


def _strongly_biconnected_subset(g, und, sub):
    """is_strongly_biconnected of the induced subgraph on `sub`, evaluated
    via subset-restricted kernels instead of materializing the subgraph.
    `und` must be underlying(g)."""
    if len(sub) <= 1:
        return True
    blocks, _aps, connected = _kernels.bcc(g.n, und.adj, sub)
    if not connected or len(blocks) != 1:
        return False
    count, _ = _kernels.scc_ids(g.n, g.out_adj, sub)
    return count == 1


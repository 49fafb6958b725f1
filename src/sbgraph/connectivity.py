"""Classic connectivity primitives.

Strongly connected components for digraphs; blocks, articulation points
and bridges for undirected graphs; and the strongly-biconnected predicate
combining the two.  Biconnectivity follows the "connected with no cut
vertex" convention, so K1 and K2 both count as biconnected.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from . import _kernels
from .errors import GuardError
from .graph import memoized, underlying


def canonical_family(sets):
    """Sort a family of vertex sets: members ascending, then by
    (smallest member, size, lexicographic)."""
    fam = [tuple(sorted(s)) for s in sets]
    fam.sort(key=lambda b: (b[0], len(b), b))
    return fam


def scc_classes(n, adj, sub):
    """Strongly connected classes of the subgraph induced on `sub` (pass
    range(n) for the whole graph), as lists in `sub` order, ordered by
    first member."""
    ids = _kernels.scc_ids(n, adj, sub)[1]
    groups = {}
    for v in sub:
        groups.setdefault(ids[v], []).append(v)
    return sorted(groups.values(), key=lambda c: c[0])


def strongly_connected_components(g):
    """Partition of V into maximal strongly connected classes,
    ordered by smallest member."""
    return [tuple(c) for c in scc_classes(g.n, g.out_adj, range(g.n))]


@memoized
def is_strongly_connected(g):
    """True when the graph has at most one SCC (trivially true for n <= 1).

    The verdict is computed once per graph and kept on it.
    """
    if g.n <= 1:
        return True
    ncomp, _ = _kernels.scc_ids(g.n, g.out_adj, range(g.n))
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
    those edges.  The articulation points are read off the blocks: the
    vertices that lie in two or more of them.
    """
    blocks = canonical_family(_kernels.bcc(u.n, u.adj, range(u.n)))
    count = Counter(itertools.chain.from_iterable(blocks))
    return BlockDecomposition(
        blocks=tuple(blocks),
        articulation_points=tuple(sorted(v for v in count if count[v] > 1)),
        bridges=tuple(b for b in blocks if len(b) == 2),
    )


def is_biconnected(u):
    """Connected with no cut vertex; K1 and K2 qualify, as does the empty
    graph by convention."""
    return len(_kernels.bcc(u.n, u.adj, range(u.n))) <= 1


@memoized
def is_strongly_biconnected(g):
    """Strongly connected with a biconnected underlying graph.

    The verdict is computed once per graph and kept on it.
    """
    return is_strongly_connected(g) and is_biconnected(underlying(g))


def _strongly_biconnected_subset(g, und, sub):
    """is_strongly_biconnected of the induced subgraph on `sub`, evaluated
    via subset-restricted kernels instead of materializing the subgraph.
    `und` must be underlying(g)."""
    if len(sub) <= 1:
        return True
    if len(_kernels.bcc(g.n, und.adj, sub)) != 1:
        return False
    count, _ = _kernels.scc_ids(g.n, g.out_adj, sub)
    return count == 1


def check_guard(op, n, guard):
    """Refuse an exponential operation on more than `guard` vertices."""
    if n > guard:
        raise GuardError(
            f"{op} requires n <= {guard}, got n={n}; raise the guard "
            "explicitly to override"
        )


def maximal_subsets(regions, min_size, keep):
    """Subsets of each region with at least `min_size` members that satisfy
    `keep` and lie in no larger such subset, as tuples in region order.
    Tries subsets largest first and skips, without calling `keep`, those
    inside one already kept; a region that is kept whole ends there.
    Exponential in the region size."""
    found = []
    for region in regions:
        region = tuple(region)
        if len(region) >= min_size and keep(region):
            found.append(region)
            continue
        kept = []
        for size in range(len(region) - 1, min_size - 1, -1):
            for comb in itertools.combinations(region, size):
                cs = set(comb)
                if any(cs <= k for k in kept):
                    continue
                if keep(comb):
                    kept.append(cs)
                    found.append(comb)
    return found

"""Classic connectivity primitives.

Strongly connected components for digraphs; blocks, articulation points
and bridges for undirected graphs; and the strongly-biconnected predicate
combining the two.  Biconnectivity follows the "connected with no cut
vertex" convention, so K1 and K2 both count as biconnected.

Each whole-graph kernel pass is kept on the graph it describes:
`_scc_pass`, the SCC classes of a digraph, on the digraph, and
`_block_pass`, the blocks of an undirected graph, on that graph, which
for a digraph is its underlying graph.  A digraph's block pass runs only
once it is known to be strongly connected.  Both verdicts read them, as
do `undirected_blocks`, `is_biconnected` and the strongly biconnected
components (`sbc`), which for a strongly connected graph are those
blocks: a strongly biconnected graph's are V alone, with no further
kernel call.
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
    range(n) for the whole graph): sorted tuples, ordered by least
    member, as `_kernels.scc_ids` returns them.  A one-vertex `sub` is
    its own class, with no kernel call."""
    if len(sub) == 1:
        return [tuple(sub)]
    return _kernels.scc_ids(n, adj, sub)[1]


@memoized
def _scc_pass(g):
    """SCC classes of all of g (`scc_classes`), computed once per graph
    and kept on it."""
    return scc_classes(g.n, g.out_adj, range(g.n))


def strongly_connected_components(g):
    """Partition of V into maximal strongly connected classes,
    ordered by smallest member."""
    return list(_scc_pass(g))


def is_strongly_connected(g):
    """True when the graph has at most one SCC (trivially true for n <= 1),
    read off the whole-graph SCC pass."""
    return len(_scc_pass(g)) <= 1


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (biconnected components as vertex sets), articulation points
    and bridges of an undirected graph.  Isolated vertices appear as
    singleton blocks so the blocks always cover V."""

    blocks: tuple
    articulation_points: tuple
    bridges: tuple


@memoized
def _block_pass(u):
    """Blocks of the undirected graph u over all of V, as sorted tuples
    (`_kernels.bcc`), computed once per graph and kept on it."""
    return tuple(_kernels.bcc(u.n, u.adj, range(u.n)))


def undirected_blocks(u):
    """Biconnected components of an undirected graph.

    A bridge shows up as a 2-vertex block; the bridges field lists exactly
    those edges.  The articulation points are read off the blocks: the
    vertices that lie in two or more of them.
    """
    blocks = canonical_family(_block_pass(u))
    count = Counter(itertools.chain.from_iterable(blocks))
    return BlockDecomposition(
        blocks=tuple(blocks),
        articulation_points=tuple(sorted(v for v in count if count[v] > 1)),
        bridges=tuple(b for b in blocks if len(b) == 2),
    )


def is_biconnected(u):
    """Connected with no cut vertex; K1 and K2 qualify, as does the empty
    graph by convention.  Read off the block pass."""
    return len(_block_pass(u)) <= 1


def is_strongly_biconnected(g):
    """Strongly connected with a biconnected underlying graph, read off
    the whole-graph passes; the block pass runs only for a strongly
    connected g."""
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

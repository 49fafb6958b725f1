"""Strongly biconnected components.

A strongly biconnected component is a maximal vertex subset whose induced
subgraph is strongly connected with a biconnected underlying graph.
Components cover all of V, so singletons appear for vertices in no larger
component.  Two components share at most one vertex.  Were C and D to
share vertices x != y, the subgraph induced on C | D would be strongly
connected (two strongly connected subgraphs meeting in x), and its
underlying graph would stay connected after deleting any one vertex (what
is left of C and of D is connected, and both keep x or y), so C | D
would be strongly biconnected, against the maximality of C and D.

`masked_sbc(n, out_adj, und_adj, classes)` refines the SCC classes of a
subgraph into its strongly biconnected components: worklist sets are
emitted when strongly biconnected, otherwise split along undirected
blocks and re-split along strongly connected components.  It reads the
arcs and the underlying edges as given, so a caller probes a deletion by
masking: starting from the SCC classes of G - z, which leave z out,
deletes vertex z, and passing adjacency rows with one entry dropped
deletes an arc.  The caller supplies the starting classes, so a probe
(`resilience._sbc_parts`) starts from the deletion's kept split and
makes no SCC call over all it leaves.  It returns the raw emitted sets, in no
particular order and with possible repeated or covered singletons: a
probe only needs the parts.  `strongly_biconnected_components(g)` runs
the same loop from the SCC classes of all of g and finishes the result
(`_finish`: canonical order).  `sbc_oracle` recomputes the same
decomposition by exhaustive search over the vertex subsets of all of V,
largest first, and exists purely to validate the refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .connectivity import (
    _strongly_biconnected_subset, check_guard, maximal_subsets, scc_classes,
)
from .errors import VertexRangeError
from .graph import underlying


@dataclass(frozen=True)
class SbcDecomposition:
    """Cover of V by strongly biconnected components, canonically ordered."""

    components: tuple

    def component_ids(self, v):
        """Indices of the components that hold v."""
        return frozenset(i for i, c in enumerate(self.components) if v in c)


def _finish(raw_sets):
    """Order canonically the refinement's strongly biconnected sets, or
    the oracle's maximal sets plus uncovered singletons.

    Sets of two or more vertices are already maximal and distinct: every
    maximal strongly biconnected component stays inside one part at every
    split (one block, then one SCC), so the worklist set that holds an
    emitted set also holds the maximal component around it, and the two
    are equal.  Only singletons can repeat or lie inside a larger set, so
    only they are filtered: O(total size).
    """
    covered = set()
    kept = []
    for c in raw_sets:
        if len(c) > 1:
            kept.append(c)
            covered.update(c)
    kept.extend({
        c for c in raw_sets if len(c) == 1 and c[0] not in covered
    })
    kept.sort(key=lambda c: (c[0], len(c), c))
    return SbcDecomposition(components=tuple(kept))


def strongly_biconnected_components(g):
    """Decompose a digraph into its strongly biconnected components.

    The input need not be strongly connected; the worklist starts from the
    SCC classes, so the decomposition applies per SCC.
    """
    n = g.n
    classes = scc_classes(n, g.out_adj, range(n))
    return _finish(masked_sbc(n, g.out_adj, underlying(g).adj, classes))


def masked_sbc(n, out_adj, und_adj, classes):
    """Raw strongly biconnected sets of the subgraph whose SCC classes are
    `classes`.

    out_adj: out-neighbours per vertex; und_adj: neighbours per vertex in
    the underlying graph of the same arcs.  Vertex ids stay those of the
    full graph.  `classes` are the SCC classes of the probed subgraph
    under out_adj, each a list of vertices; they are not modified.

    Returns every strongly biconnected component of two or more vertices
    once, plus singletons that may repeat or lie inside a larger set
    (`_finish` drops those), as tuples in no particular order.

    Every set on the worklist is an SCC class of the subgraph or of a
    block, so it is strongly connected; one that is a single block is
    therefore strongly biconnected and is emitted without another SCC call.
    """
    worklist = list(classes)
    emitted = []
    while worklist:
        s = worklist.pop()
        if len(s) == 1:
            emitted.append((s[0],))
            continue
        blocks = _kernels.bcc(n, und_adj, s)
        if len(blocks) == 1:
            emitted.append(tuple(s))
            continue
        # Split along undirected blocks, then re-split every block along
        # its strongly connected components.  Every part is strictly
        # smaller than s, so the worklist terminates.
        for b in blocks:
            worklist.extend(scc_classes(n, out_adj, b))
    return emitted


def same_sbc(decomposition, x, y):
    """True when some component contains both vertices (reflexively true).
    A vertex in no component is not a vertex of the decomposed graph."""
    ids = [decomposition.component_ids(v) for v in (x, y)]
    for v, held in zip((x, y), ids):
        if not held:
            raise VertexRangeError(f"vertex {v} lies in no component")
    return x == y or bool(ids[0] & ids[1])


def sbc_oracle(g, guard=12):
    """Reference decomposition by exhaustive subset search.

    Keeps the maximal vertex subsets of V, two or more vertices, whose
    induced subgraph is strongly biconnected, and covers leftover vertices
    with singletons.  It searches all of V, not the SCCs, to stay
    independent of the refinement.  Exponential; guarded by n <= guard.
    """
    n = g.n
    check_guard("sbc_oracle", n, guard)
    und = underlying(g)
    found = maximal_subsets(
        [range(n)], 2, lambda s: _strongly_biconnected_subset(g, und, s)
    )
    covered = set().union(*found)
    singletons = [(v,) for v in range(n) if v not in covered]
    return _finish(found + singletons)

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

Every strongly biconnected set lies in one SCC and, as its underlying
graph is biconnected, in one block of that SCC's underlying graph.
Conversely, in a strongly connected digraph D every block B of the
underlying graph induces a strongly connected subgraph: a simple path
between two vertices of a block never leaves the block, so for an arc
(u, v) inside B, D's simple path from v back to u stays in B and closes
a cycle through (u, v) in D[B]; every arc of D[B] lies on a cycle and
D[B] is connected, so it is strongly connected.  So D[B] is strongly
biconnected, and the strongly biconnected components of any digraph are
the blocks of the underlying graph of each SCC class with two or more
vertices, plus each one-vertex class.

`masked_sbc(n, und_adj, classes)` reads them off with one `bcc` call per
class of two or more vertices and none for a one-vertex class.  It
reads only the underlying edges inside each class, so a caller probes a
deletion by masking: starting from the SCC classes of G - z, which leave
z out, deletes vertex z, and dropping an underlying edge deletes it.
The caller supplies the starting classes, so a probe
(`resilience._sbc_parts`) starts from the deletion's kept split and
makes no SCC call over all it leaves.  A probe lists only the parts its
deletion separates: every vertex in no listed part, the deleted vertex
aside, shares one implicit part.  `strongly_biconnected_components(g)`
reads the whole-graph passes kept on g and on its underlying graph
(`connectivity`): a strongly connected g with two or more vertices has
one class, all of V, whose blocks the underlying graph's block pass
already lists, so it makes no further kernel call, and any other g
starts `masked_sbc` from its SCC classes.  It orders the result
canonically (`_finish`).  `sbc_oracle` recomputes the same decomposition
by exhaustive search over the vertex subsets of all of V, largest
first, and exists purely to validate `masked_sbc`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .connectivity import (
    _block_pass, _scc_pass, _strongly_biconnected_subset, canonical_family,
    check_guard, maximal_subsets,
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


def _finish(sets):
    """Order canonically the strongly biconnected components, as
    `masked_sbc` or the oracle leaves them: each set once, no singleton
    inside a larger set."""
    return SbcDecomposition(components=tuple(canonical_family(sets)))


def strongly_biconnected_components(g):
    """Decompose a digraph into its strongly biconnected components.

    The input need not be strongly connected: the decomposition is taken
    per SCC.
    """
    classes = _scc_pass(g)
    if g.n > 1 and len(classes) == 1:
        return _finish(_block_pass(underlying(g)))
    return _finish(masked_sbc(g.n, underlying(g).adj, classes))


def masked_sbc(n, und_adj, classes):
    """Strongly biconnected components of the subgraph whose SCC classes
    are `classes`, as tuples in no particular order: each class of one
    vertex, and the blocks of every other class (module docstring).

    und_adj: neighbours per vertex in the underlying graph of the probed
    subgraph; only the edges inside each class are read.  Vertex ids stay
    those of the full graph.  `classes` are sequences of vertices; they
    are not modified.
    """
    emitted = []
    for c in classes:
        if len(c) == 1:
            emitted.append((c[0],))
        else:
            emitted.extend(_kernels.bcc(n, und_adj, c))
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

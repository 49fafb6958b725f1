"""Strongly biconnected components.

A strongly biconnected component is a maximal vertex subset whose induced
subgraph is strongly connected with a biconnected underlying graph.
Components may overlap (observed overlap is at most one vertex) and cover
all of V, so singletons appear for vertices in no larger component.

`masked_sbc(n, out_adj, und_adj, sub)` computes the decomposition of the
subgraph induced on `sub` by alternating refinement: worklist sets are
emitted when strongly biconnected, otherwise split along undirected blocks
and re-split along strongly connected components.  It reads the arcs and
the underlying edges as given, so a caller probes a deletion by masking:
pass V - z as `sub` to delete vertex z, or adjacency rows with one entry
dropped to delete an arc.  `strongly_biconnected_components(g)` is the
same loop on all of g.  `sbc_oracle` recomputes the same decomposition by
exhaustive subset enumeration and exists purely to validate the
refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _kernels
from .connectivity import _strongly_biconnected_subset, scc_classes
from .errors import GuardError
from .graph import underlying


@dataclass(frozen=True)
class SbcDecomposition:
    """Cover of V by strongly biconnected components, canonically ordered."""

    components: tuple
    membership: dict = field(compare=False, repr=False)

    def component_ids(self, v):
        return self.membership.get(v, frozenset())


def _finish(raw_sets):
    """Dedupe, drop subsets of other sets, order canonically and index."""
    uniq = sorted(set(raw_sets), key=lambda c: (-len(c), c))
    kept = []
    kept_sets = []
    for c in uniq:
        cs = set(c)
        if not any(cs <= other for other in kept_sets):
            kept.append(c)
            kept_sets.append(cs)
    kept.sort(key=lambda c: (c[0], len(c), c))
    membership = {}
    for idx, c in enumerate(kept):
        for v in c:
            membership.setdefault(v, set()).add(idx)
    membership = {v: frozenset(ids) for v, ids in membership.items()}
    return SbcDecomposition(components=tuple(kept), membership=membership)


def strongly_biconnected_components(g):
    """Decompose a digraph into its strongly biconnected components.

    The input need not be strongly connected; the worklist starts from the
    SCC classes, so the decomposition applies per SCC.
    """
    return masked_sbc(g.n, g.out_adj, underlying(g).adj, range(g.n))


def masked_sbc(n, out_adj, und_adj, sub):
    """Strongly biconnected components of the subgraph induced on `sub`.

    out_adj: out-neighbours per vertex; und_adj: neighbours per vertex in
    the underlying graph of the same arcs.  Vertex ids stay those of the
    full graph.
    """
    worklist = scc_classes(n, out_adj, sub)
    worklist.reverse()
    emitted = []
    while worklist:
        s = worklist.pop()
        if len(s) == 1:
            emitted.append((s[0],))
            continue
        blocks, _aps, connected = _kernels.bcc(n, und_adj, s)
        if connected and len(blocks) == 1:
            count, _ = _kernels.scc_ids(n, out_adj, s)
            if count == 1:
                emitted.append(tuple(s))
                continue
        # Split along undirected blocks, then re-split every block along
        # its strongly connected components.  Every part is strictly
        # smaller than s, so the worklist terminates.
        parts = []
        for b in blocks:
            if len(b) == 1:
                parts.append(b)
            else:
                parts.extend(scc_classes(n, out_adj, b))
        parts.sort(key=lambda c: c[0])
        worklist.extend(reversed(parts))
    return _finish(emitted)


def same_sbc(decomposition, x, y):
    """True when some component contains both vertices (reflexively true)."""
    if x == y:
        return True
    return bool(
        decomposition.component_ids(x) & decomposition.component_ids(y)
    )


def sbc_oracle(g, guard=12):
    """Reference decomposition by exhaustive subset enumeration.

    Keeps every vertex subset whose induced subgraph is strongly
    biconnected, discards non-maximal ones, and covers leftover vertices
    with singletons.  Exponential; guarded by n <= guard.
    """
    n = g.n
    if n > guard:
        raise GuardError(
            f"sbc_oracle requires n <= {guard}, got n={n}; raise the guard "
            "explicitly to override"
        )
    und = underlying(g)
    qualifying = []
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            continue  # singletons are only added for uncovered vertices
        sub = [v for v in range(n) if mask >> v & 1]
        if _strongly_biconnected_subset(g, und, sub):
            qualifying.append(tuple(sub))
    qualifying.sort(key=lambda c: (-len(c), c))
    maximal = []
    maximal_sets = []
    for c in qualifying:
        cs = set(c)
        if not any(cs <= other for other in maximal_sets):
            maximal.append(c)
            maximal_sets.append(cs)
    covered = set()
    for c in maximal:
        covered.update(c)
    for v in range(n):
        if v not in covered:
            maximal.append((v,))
    return _finish(maximal)

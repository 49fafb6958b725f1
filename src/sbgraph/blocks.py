"""2-block families of strongly (bi)connected digraphs.

Every family is defined by a pair relation: x and y are related when they
stay inside one part after each probed deletion, a strongly biconnected
component for the 2-edge- and 2-strong-biconnected blocks, an SCC for
the 2-edge and 2-strong blocks.  A family's blocks are the maximal
cliques, of two or more vertices, of its relation, which is the paper's
definition.  One loop, `_blocks`, reads all four families straight off
the probes, with no pair relation and no clique search, by this lemma.

Lemma.  At every probe, a set C of vertices whose pairs all share a part
lies inside one part.  So C is a clique of the relation exactly when
every probe keeps C, its deleted vertex z aside, inside one part, and
the blocks are the maximal such sets of two or more vertices.

Proof.  A probe's parts are either disjoint SCC classes, or the blocks of
an undirected graph inside each SCC class: the underlying graph H, or H
less the masked edge of an arc.  A vertex in no listed part shares only
the implicit part, which meets no listed one.  Disjoint parts give the
claim at once, and blocks inside different classes are disjoint, so it
remains to show it for the blocks of one undirected graph.  There, the
blocks holding a vertex x, with x's own node when x is a cut vertex,
form a subtree T_x of the block-cut tree, and x and y share a block
exactly when T_x and T_y meet.  Subtrees of a tree that meet pairwise
have a common node (the Helly property of subtrees), and for two or
more vertices it is no cut-vertex node, which lies only in its own
vertex's subtree: it is a block holding all of C.  A pair with z is not
constrained by z's probe, and every other pair of C shares a part, so
C minus z lies inside one part.

`_blocks` starts from V and splits every set at each probe, so every
set it keeps is a clique and every clique stays inside a set it keeps.
It indexes its sets by vertex, so a probe touches only the sets that
hold a vertex it lists: it costs about its listed vertices, times the
sets holding each, plus its new pieces, however many sets there are,
and the last filter compares a set only with the kept sets through one
of its vertices.
The public `edge_relation` and `vertex_relation` are views of their
families: x and y are related exactly when x = y or some block holds
both, since a related pair is a clique of two and lies in a maximal
one.  So no structure of one entry per pair is ever built.  The oracle
of the 2-edge-biconnected blocks does not read the probes: it relates
the pairs that share a strongly biconnected component of a copy of G
less each b-bridge, and takes the blocks of the helper graph joining
them.  It shares only the cut report's b-bridges and the SBC pass with
the fast path.

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
pass over the triconnected components of H, the underlying graph (see
its docstring for the characterizations).  Each family reads its set
from there.  The graph keeps every derived fact it is asked for once
(the strongly-connected and strongly-biconnected verdicts, the
underlying graph, the strong cuts, the cut report, the split of each
deletion and the refinement of the class of vertex 0 it leaves), so the
families of one graph share one cut pass and one verdict of each kind,
whoever calls them.

Every family runs one probe per deletion d, an arc (tail, head) or a
vertex z, and hands `_blocks` the pair (z, parts), z None for an arc.
Every probe keeps one contract: it lists only the parts that d
separates, and every vertex in no listed part, z aside, shares one
implicit part.  `resilience` owns the probes and reads g's own
adjacency instead of copying the graph.  The 2-edge and 2-strong blocks
list d's split, `resilience._split`, the SCCs of G - d outside the class
of vertex 0, with an arc d dropped from its row; it is kept on the graph
per deletion, so a family that probes only arcs never splits a vertex.
The 2-edge- and 2-strong-biconnected blocks list `resilience._sbc_parts`:
the strongly biconnected components of G - d are the blocks of the
underlying graph of each SCC class, so they are the blocks of H inside
each class of the same split and, when it is not one block, inside the
class of 0; a b-cut that is not a strong cut has an empty split, so it
costs no SCC call.  The class of 0 is refined once per set of vertices
it leaves out, shared by arc and vertex probes, and not at all when
that set is one vertex that the triconnected components place in no
separation pair (`resilience` has the argument); any other set costs
one walk that stops at the first block it closes, and a block pass
only when the class splits.  A b-bridge that is no strong bridge has no
twin and leaves all of V, whose blocks are read with the bridge's edge
out of H and listed whole.  `_blocks` reads
only the parts, not their order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .connectivity import (
    canonical_family,
    check_guard,
    is_strongly_connected,
    undirected_blocks,
)
from .errors import NotStronglyConnectedError, VertexRangeError
from .graph import UndirectedGraph, remove_edge
from .resilience import (
    _require_sb, _sbc_parts, _split, _strong_cuts, cut_report,
)
from .sbc import strongly_biconnected_components


def _require_sc(g, op):
    if not is_strongly_connected(g):
        raise NotStronglyConnectedError(
            f"{op} requires a strongly connected input graph"
        )


@dataclass(frozen=True)
class RelationMatrix:
    """Symmetric pair relation on n vertices, read as a view of its block
    family: x and y are related when x == y or some block of `blocks`, a
    canonical family, holds both.  A related pair is a clique of two, so
    it lies in a maximal clique, a block, and the blocks give back the
    whole relation.  `co` scans the blocks: O(total block size) per call,
    and no structure beyond the family."""

    n: int
    blocks: tuple

    def co(self, x, y):
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise VertexRangeError(
                f"vertex pair ({x}, {y}) out of range for n={self.n}"
            )
        return x == y or any(x in b and y in b for b in self.blocks)


def _blocks(n, probes):
    """The maximal sets of two or more vertices that every probe of
    `probes` keeps inside one part, its deleted vertex aside, as sets in
    no fixed order.  When each probe's parts have the Helly property, as
    every family's do (see the lemma above), these are the maximal
    cliques of the relation of the pairs that every probe keeps in one
    part.

    Starts from the one set V and, at each probe (z, parts), splits every
    set that holds a listed vertex into its intersections with each
    listed part and with the implicit part, z kept in every piece, and
    drops pieces of fewer than two vertices; last, drops every set that
    lies inside another, which also keeps equal sets once.

    The sets are indexed: each is a mutable set under an id, and each
    vertex keeps the ids of the sets holding it.  A probe groups its
    listed vertices by (set id, part), so it visits only the sets that
    hold a listed vertex.  A hit set keeps its id for the unlisted rest,
    trimmed in place, z included; each listed piece gets a new id, with
    z added when the set holds z; a set of fewer than two vertices
    leaves the index.  A probe so costs O(sum over its listed vertices v
    of the sets holding v, plus the vertices of its new pieces) Python
    steps, whatever the number of sets.  The last filter compares a set
    only with the kept sets that hold its vertex in the fewest sets,
    O(total set size) plus those comparisons.
    """
    if n < 2:
        return []
    sets = {0: set(range(n))}
    holding = [[0] for _ in range(n)]
    fresh = 1
    for z, parts in probes:
        groups = {}
        for i, part in enumerate(parts):
            for v in part:
                for key in holding[v]:
                    groups.setdefault((key, i), []).append(v)
        for part in parts:
            for v in part:
                holding[v] = []
        hit = set()
        for (key, _), group in groups.items():
            rest = sets[key]
            rest.difference_update(group)
            hit.add(key)
            if z in rest:
                group.append(z)
            if len(group) >= 2:
                sets[fresh] = set(group)
                for v in group:
                    holding[v].append(fresh)
                fresh += 1
        for key in hit:
            rest = sets[key]
            if len(rest) < 2:
                for v in rest:
                    holding[v].remove(key)
                del sets[key]
    # Largest first, so a set meets every set holding it before it, and
    # of two equal sets the second goes.  Each set holding s holds every
    # vertex of s, so the sets through s's least shared vertex include
    # them all; a dropped one lies inside a kept one, which holds s too.
    kept = set()
    for key in sorted(sets, key=lambda k: len(sets[k]), reverse=True):
        s = sets[key]
        v = next(iter(s))
        if len(holding[v]) > 1:
            v = min(s, key=lambda u: len(holding[u]))
        if not any(k in kept and s <= sets[k] for k in holding[v]):
            kept.add(key)
    return [sets[key] for key in kept]


def _b_bridge_probes(g):
    return ((None, _sbc_parts(g, b)) for b in cut_report(g).b_bridges)


def _b_point_probes(g):
    return ((z, _sbc_parts(g, z)) for z in cut_report(g).b_articulation_points)


def edge_relation(g):
    """Pair relation under single-arc deletions, as a view of the
    2-edge-biconnected blocks.

    x and y are unrelated iff some b-bridge deletion puts them into
    different strongly biconnected components; arcs that are not b-bridges
    cannot separate anything.
    """
    _require_sb(g, "edge_relation")
    return RelationMatrix(g.n, tuple(two_edge_biconnected_blocks(g)))


def helper_graph(relation):
    """Undirected graph joining the related pairs, read off the blocks."""
    return UndirectedGraph(
        relation.n,
        [pair for b in relation.blocks for pair in combinations(b, 2)],
    )


def two_edge_biconnected_blocks(g):
    """All 2-edge-biconnected blocks, canonically ordered: the maximal
    cliques of size >= 2 of the edge relation (V when no arc separates),
    read off the b-bridge probes."""
    _require_sb(g, "two_edge_biconnected_blocks")
    return canonical_family(_blocks(g.n, _b_bridge_probes(g)))


def oracle_two_edge_biconnected_blocks(g, guard=24):
    """Reference 2-edge-biconnected blocks by a second route, on graph
    copies: start from all pairs, keep for each b-bridge b only those
    that share a strongly biconnected component of `remove_edge(g, b)`,
    and return the blocks of size >= 2 of the helper graph joining what
    is left.  It shares with the fast path only the cut report's
    b-bridges and the SBC pass, and holds one entry per pair, so it is
    guarded by n <= guard."""
    _require_sb(g, "oracle_two_edge_biconnected_blocks")
    check_guard("oracle_two_edge_biconnected_blocks", g.n, guard)
    pairs = set(combinations(range(g.n), 2))
    for b in cut_report(g).b_bridges:
        components = strongly_biconnected_components(remove_edge(g, b))
        pairs &= {p for c in components.components
                  for p in combinations(c, 2)}
    blocks = undirected_blocks(UndirectedGraph(g.n, pairs)).blocks
    return [b for b in blocks if len(b) >= 2]


def vertex_relation(g):
    """Pair relation under single-vertex deletions, as a view of the
    2-strong-biconnected blocks: related pairs stay in one strongly
    biconnected component of G minus z for every other z.

    Only b-articulation points z can separate a pair.
    """
    _require_sb(g, "vertex_relation")
    return RelationMatrix(g.n, tuple(two_strong_biconnected_blocks(g)))


def two_strong_biconnected_blocks(g):
    """All 2-strong-biconnected blocks: maximal cliques of size >= 2 of
    the vertex relation, read off the b-articulation point probes;
    distinct blocks may share up to two vertices."""
    _require_sb(g, "two_strong_biconnected_blocks")
    return canonical_family(_blocks(g.n, _b_point_probes(g)))


def two_edge_blocks(g):
    """Maximal sets with two edge-disjoint paths both ways between every
    pair: the maximal cliques of size >= 2 of "same SCC under every
    single-arc deletion", an equivalence, so its classes.  Only the
    strong bridges are probed, and their splits are shared with the
    2-edge-biconnected blocks.
    """
    _require_sc(g, "two_edge_blocks")
    arcs = _strong_cuts(g)[0]
    return canonical_family(_blocks(g.n, ((None, _split(g, a)) for a in arcs)))


def two_strong_blocks(g):
    """Maximal sets whose pairs share an SCC of G minus w for every other
    vertex w: maximal cliques of size >= 2 of that relation.  Only the
    strong articulation points are probed, and their splits are shared
    with the 2-strong-biconnected blocks.
    """
    _require_sc(g, "two_strong_blocks")
    points = _strong_cuts(g)[1]
    return canonical_family(_blocks(g.n, ((z, _split(g, z)) for z in points)))

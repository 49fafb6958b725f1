"""2-block families of strongly (bi)connected digraphs.

Every family is read off a pair relation: x and y are related when they
stay inside one part after each probed deletion, a strongly biconnected
component for the 2-edge- and 2-strong-biconnected blocks, an SCC for
the 2-edge and 2-strong blocks.  The relation is kept as one bit row per
vertex (bit y of rows[x] relates x and y), and one loop, `_intersect`,
builds it for all four families: each probe ANDs into every row the
parts that hold its vertex.

Every family's blocks are the maximal cliques, of two or more vertices,
of its relation, which is the paper's definition, and one search reads
them all (`_max_cliques`); the blocks of the helper graph that joins
related pairs serve only as the independent oracle of the
2-edge-biconnected blocks.

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
vertex z, and hands `_intersect` the pair (z, parts), z None for an arc.
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
separation pair (`resilience` has the argument); a b-bridge that is no
strong bridge leaves all of V, whose blocks are read with the bridge's
edge out of H when it has no twin, and listed whole.  `_intersect` reads
only the parts, not their order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .connectivity import (
    canonical_family,
    check_guard,
    is_strongly_connected,
    undirected_blocks,
)
from .errors import NotStronglyConnectedError, VertexRangeError
from .graph import UndirectedGraph
# Unused here; bound because the benchmark's tracer test
# (perfbench/test_perfbench.py) reads blocks.remove_edge.
from .graph import remove_edge  # noqa: F401
from .resilience import (
    _require_sb, _sbc_parts, _split, _strong_cuts, cut_report,
)


def _require_sc(g, op):
    if not is_strongly_connected(g):
        raise NotStronglyConnectedError(
            f"{op} requires a strongly connected input graph"
        )


@dataclass(frozen=True)
class RelationMatrix:
    """Symmetric pair relation on n vertices, one bit row per vertex: bit
    y of rows[x] says x and y survive every probed deletion inside one
    strongly biconnected component."""

    n: int
    rows: tuple

    def co(self, x, y):
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise VertexRangeError(
                f"vertex pair ({x}, {y}) out of range for n={self.n}"
            )
        return bool(self.rows[x] >> y & 1)


# Maps the digits of bin() to the bytes 0 and 1, for `_bits`.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask):
    """The set bits of mask, as an ascending tuple."""
    flags = bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)
    return tuple(compress(range(len(flags)), flags))


def _intersect(n, probes):
    """Bit rows of the pairs that share a part after every probe of
    `probes`, each a pair (z, parts): z is the deleted vertex, or None
    for an arc, and parts are the classes the probe lists.  Every vertex
    in no listed part, z aside, shares one implicit part.

    Parts may overlap, so each vertex keeps the union of the parts that
    hold it.  z stays related to every vertex: it constrains no pair it
    is not part of.
    """
    full = (1 << n) - 1
    rows = [full] * n
    for z, parts in probes:
        keep = [0] * n
        covered = 0
        for part in parts:
            # A part holds distinct vertices, so the sum is their union.
            mask = sum(1 << v for v in part)
            covered |= mask
            for v in part:
                keep[v] |= mask
        spare = 0
        if z is not None:
            # z keeps its whole row and its bit in every other row.
            spare = 1 << z
            keep[z] = full
        rest = full & ~covered  # the implicit part, and z
        rows = [row & (k | spare if k else rest) for row, k in zip(rows, keep)]
    return tuple(rows)


def edge_relation(g):
    """Pair relation under single-arc deletions.

    x and y are unrelated iff some b-bridge deletion puts them into
    different strongly biconnected components; arcs that are not b-bridges
    cannot separate anything and are skipped.
    """
    _require_sb(g, "edge_relation")
    bridges = cut_report(g).b_bridges
    rows = _intersect(g.n, ((None, _sbc_parts(g, b)) for b in bridges))
    return RelationMatrix(n=g.n, rows=rows)


def helper_graph(relation):
    """Undirected graph joining the related pairs, each read once from
    the bits above a in row a."""
    return UndirectedGraph(
        relation.n,
        [(a, a + 1 + b) for a, row in enumerate(relation.rows)
         for b in _bits(row >> (a + 1))],
    )


def two_edge_biconnected_blocks(g):
    """All 2-edge-biconnected blocks, canonically ordered: the maximal
    cliques of size >= 2 of the edge relation (V when no arc separates)."""
    _require_sb(g, "two_edge_biconnected_blocks")
    return canonical_family(_max_cliques(edge_relation(g).rows))


def _max_cliques(rows):
    """Maximal cliques of size >= 2 of a symmetric relation given as bit
    rows (the diagonal is ignored), Bron-Kerbosch with pivoting on twin
    classes.

    Vertices with equal closed rows (row | 1 << v) are true twins: they
    are related to each other and lie in exactly the same maximal cliques.
    So the search runs on one representative per class, over the
    quotient relation, and expands each clique found to the union of its
    classes; a single class is kept when it alone is maximal and holds
    two or more vertices.  The search is exponential in the number of
    distinct rows, not in n.

    On two of the relations it reads, the search stays small:

    - The 2-edge relation is an equivalence, so the quotient has no
      edges: every class is a clique by itself, and no search runs.
    - The helper graph of the 2-edge-biconnected relation is a block
      graph: each of its blocks is a 2-edge-biconnected block, hence a
      clique (Jaberi's theorem).  True twins merge the non-cut vertices
      of each block into one class.  Below depth 1, p | x lies inside
      one block, so a frame branches at most once, or not at all when x
      already holds a class of that block.

    Depth-first with an explicit stack of [r, p, x, branches] frames, so
    a clique of any size cannot overflow the interpreter stack; r, p and
    x are bit sets of classes.  The pivot is the first class (by smallest
    member) of p | x with the most neighbours in p; a class whose degree
    bound cannot beat the best so far is not intersected.
    """
    classes = {}
    for v, row in enumerate(rows):
        classes.setdefault(row | 1 << v, []).append(v)
    members = list(classes.values())
    # A class is represented by its first member: `reps` is the bit set
    # of representatives and `index` maps each to its class.
    index = {c[0]: i for i, c in enumerate(members)}
    reps = sum(1 << v for v in index)
    neighbours = []
    for c, closed in zip(members, classes):
        others = closed & reps & ~(1 << c[0])
        neighbours.append(
            sum(1 << index[u] for u in _bits(others)) if others else 0
        )
    degree = [row.bit_count() for row in neighbours]
    # A class with no neighbour is a maximal clique by itself, so only
    # the other classes enter the search, and each clique it finds holds
    # two or more classes.
    out = [
        tuple(c) for c, row in zip(members, neighbours)
        if not row and len(c) >= 2
    ]
    linked = sum(1 << i for i, row in enumerate(neighbours) if row)
    frames = []

    def enter(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(v for i in _bits(r) for v in members[i])))
            return
        best, pivot = -1, None
        size_p = p.bit_count()
        for u in _bits(p | x):
            if min(degree[u], size_p - (p >> u & 1)) <= best:
                continue
            size = (p & neighbours[u]).bit_count()
            if size > best:
                best, pivot = size, u
        frames.append([r, p, x, iter(_bits(p & ~neighbours[pivot]))])

    if linked:
        enter(0, linked, 0)
    while frames:
        frame = frames[-1]
        r, p, x, branches = frame
        v = next(branches, None)
        if v is None:
            frames.pop()
            continue
        enter(r | 1 << v, p & neighbours[v], x & neighbours[v])
        frame[1] = p & ~(1 << v)
        frame[2] = x | 1 << v
    return out


def oracle_two_edge_biconnected_blocks(g, guard=24):
    """Reference 2-edge-biconnected blocks by a second route: the blocks
    of size >= 2 of the helper graph.  That graph holds one edge per
    related pair, so it is guarded by n <= guard."""
    _require_sb(g, "oracle_two_edge_biconnected_blocks")
    check_guard("oracle_two_edge_biconnected_blocks", g.n, guard)
    blocks = undirected_blocks(helper_graph(edge_relation(g))).blocks
    return [b for b in blocks if len(b) >= 2]


def vertex_relation(g):
    """Pair relation under single-vertex deletions: related pairs stay in
    one strongly biconnected component of G minus z for every other z.

    Only b-articulation points z are probed.
    """
    _require_sb(g, "vertex_relation")
    points = cut_report(g).b_articulation_points
    rows = _intersect(g.n, ((z, _sbc_parts(g, z)) for z in points))
    return RelationMatrix(n=g.n, rows=rows)


def two_strong_biconnected_blocks(g):
    """All 2-strong-biconnected blocks: maximal cliques of size >= 2 of
    the vertex relation; distinct blocks may share up to two vertices."""
    _require_sb(g, "two_strong_biconnected_blocks")
    return canonical_family(_max_cliques(vertex_relation(g).rows))


def two_edge_blocks(g):
    """Maximal sets with two edge-disjoint paths both ways between every
    pair: the maximal cliques of size >= 2 of "same SCC under every
    single-arc deletion", an equivalence, so its classes.  Only the
    strong bridges are probed, and their splits are shared with the
    2-edge-biconnected blocks.
    """
    _require_sc(g, "two_edge_blocks")
    arcs = _strong_cuts(g)[0]
    rows = _intersect(g.n, ((None, _split(g, a)) for a in arcs))
    return canonical_family(_max_cliques(rows))


def two_strong_blocks(g):
    """Maximal sets whose pairs share an SCC of G minus w for every other
    vertex w: maximal cliques of size >= 2 of that relation.  Only the
    strong articulation points are probed, and their splits are shared
    with the 2-strong-biconnected blocks.
    """
    _require_sc(g, "two_strong_blocks")
    points = _strong_cuts(g)[1]
    rows = _intersect(g.n, ((z, _split(g, z)) for z in points))
    return canonical_family(_max_cliques(rows))

"""Single-failure resilience analysis.

b-bridges are arcs whose deletion destroys strong biconnectivity;
b-articulation points are vertices that do the same.  Strong bridges and
strong articulation points are the arcs and vertices whose deletion
destroys strong connectivity.  `cut_report` finds all four sets of a
strongly biconnected G without rechecking any single deletion.

Strong cuts come from dominators (Italiano, Laura and Santaroni, TCS
2012).  Root G and its reverse at vertex 0 and compute both dominator
trees with the simple Lengauer-Tarjan algorithm (TOPLAS 1979):

- an arc is a strong bridge exactly when it is a bridge of the flow graph
  G(0) or, read backwards, of the reverse flow graph; (idom(v), v) is a
  flow-graph bridge exactly when v dominates every other in-neighbour;
- a vertex other than 0 is a strong articulation point exactly when it
  dominates some other vertex in either tree; vertex 0 is one when G - 0
  has more than one SCC.

The same trees bound what a deletion separates (Georgiadis, Italiano,
Laura and Parotsidis, SODA 2015).  Write D_F(v) and D_R(v) for v's
subtree, the vertices v dominates, in the forward and the reverse tree.
The region of an arc or a vertex d is the set of vertices outside the
SCC of 0 in G - d (`_cut_region`):

- if (a, b) is a flow-graph bridge (idom(b) = a), the vertices that 0
  cannot reach in G - ab are exactly D_F(b); if it is a reverse one
  (ridom(a) = b), the vertices that cannot reach 0 are exactly D_R(a).
  An arc's region is the union of the sets that apply, empty unless the
  arc is a strong bridge.
- for a vertex z != 0 the same holds for D_F(z) - z and D_R(z) - z, and
  its region is their union, empty unless z dominates another vertex,
  that is, unless z is a strong articulation point.
- for z = 0 both subtrees are all of V, so the region is every vertex
  but 0, and G - 0 has no SCC of 0.

0 lies in no subtree of another vertex, so it is outside every region,
and every vertex outside the region reaches 0 and is reached from it:
the SCC of 0 is everything outside the region, d aside.  The other SCCs
are the SCCs of the region alone, since a cycle through a vertex of the
region and one outside it would put the first in the SCC of 0 too.  So
one SCC call over the region splits G - d (`_split`), and a deletion
with an empty region, one that is not a strong cut, needs none, as does
one whose region is one vertex, its own class.  Each call costs
O(region + arcs leaving the region's vertices) plus the kernel's O(n)
arrays, in place of O(n + m) for the whole graph.  The
worst case is still quadratic: on a directed cycle every arc and every
vertex is a strong cut and G - d is a path, so each region holds all
but one or two vertices, about 2n^2 over all cuts.

The rest of each cut set comes from the triconnected components (the
SPQR tree) of H, the underlying graph, which is biconnected:

- x is a b-articulation point when it is a strong articulation point or
  H - x is not biconnected.  For n >= 4 the latter holds exactly when x
  is in a separation pair of H: a pole of a virtual edge, or a vertex of
  an S-node cycle with four or more vertices.  For n <= 3 it never holds.
- an arc (u, v) is a b-bridge when it is a strong bridge, or when it has
  no antiparallel twin (otherwise H keeps the edge uv) and H - uv is not
  biconnected.  For n >= 3 the latter holds exactly when uv is a real
  edge of an S-node: deleting an edge of a cycle leaves its neighbours on
  the cycle as cut vertices, while a P-node keeps two other paths between
  its poles and an R-node stays biconnected.  At n = 3 H is one triangle,
  so every edge qualifies; at n = 2 none does.

The components come from Hopcroft and Tarjan's algorithm (SIAM J.
Comput. 1973) with the corrections of Gutwenger and Mutzel (GD 2000,
LNCS 1984), in `_triconnected`.

Cost: O(m log n) for the two dominator trees plus one SCC call, and
O(n + m) for the triconnected components (`_separations`).

Every single-deletion probe is made here, on g's adjacency instead of a
copy of g: `_split(g, d)`, with an arc d dropped from its row, and
`_sbc_parts(g, d)`, the strongly biconnected components of G - d.  Both
keep one contract: they list only the parts that d separates, and every
vertex in no listed part, d aside, shares one implicit part.  `blocks`
reads them as they are; the 2vsb step adds the implicit part as one
more.  The strongly biconnected components of G - d are the blocks of
the underlying graph of each SCC class of G - d (`sbc`), so
`_sbc_parts` reads the blocks of each class of the split, and of the
class of 0, V minus a set `gone`, the split's vertices, with d when d is
a vertex.  No class holds d, and when d is a strong cut no class holds
both ends of an arc d either: were both ends in one class, putting the
arc back would join no classes, and G would not be strongly connected.
So inside every class the underlying graph of G - d is H's, and no
class reads a masked edge:

- when gone is not empty, the class of 0 holds only H's edges inside
  V - gone, so its blocks are read once per graph and set
  (`_root_split`), and every arc or vertex deletion that leaves the same
  class shares the result.  The class splits exactly when H[V - gone]
  is not biconnected; it lists its blocks then, else none, so the class
  is the implicit part.
- when gone is one vertex x, H - x is biconnected exactly when x is in
  no separation pair (above; for n <= 3 H - x is K1 or K2 and no vertex
  is in one), so V - x is one strongly biconnected set and no kernel
  runs; when x is in one, the class splits, and one `bcc` lists its
  blocks.  No such certificate covers two or more vertices:
  H - {x, y} can have a cut vertex though neither x nor y is in a
  separation pair.  So each such set pays one early-exit walk over
  V - gone (`_kernels.biconnected`, O(n + m) at most, with gone as a
  mask): the `bcc` search stopped at the first block it closes, which
  lies in the component of the least vertex left, so H[V - gone] is
  biconnected exactly when that block holds every vertex left.  A
  `bcc` over V - gone runs only when it does not, that is, when the
  class splits.
- an arc that is no strong cut leaves gone empty: its one class, all of
  V, holds both ends of the arc.  Such an arc is probed only as a
  b-bridge, so it has no antiparallel twin (`cut_report`): it takes its
  edge out of H, the one masked edge of any probe, and every block is
  listed, which leaves the implicit part empty.

The dominator trees, the split of each deletion, the strong cuts, the
vertices and edges whose deletion leaves H not biconnected, the
refinement of each set gone and the cut report are kept on the graph,
so `b_bridges`, `b_articulation_points`, the 2-edge / 2-vertex strongly
biconnected predicates and the block families of `blocks` all read one
pass.

The maximal 2-edge / 2-vertex strongly biconnected sets (2esb / 2vsb: SB,
three or more vertices, no b-bridge / no b-articulation point) come from
deleting cuts and recomputing SBCs, as Henzinger, Krinninger and
Loitzenbauer (ICALP 2015) and Jaberi (DAM 2016) do for the strongly
connected analogues.  Before each SBC pass, the current set is peeled:
every vertex with fewer than two in-neighbours or fewer than two
out-neighbours left in it is dropped, repeatedly (`_peeled`).  No 2esb
or 2vsb set C keeps such a vertex v.  C is strongly connected with
three or more vertices, so v has exactly one in-neighbour u in C (or
one out-neighbour; that case is the mirror image).  Every path into v
in C ends with uv, so the arc uv is a strong bridge of C, and u is a
strong articulation point of C, as the third vertex of C cannot reach v
in C - u.  Both are strong cuts of C, so C is neither 2esb nor 2vsb.
Each C lies inside the set it is peeled from, so induction over the
drops keeps C whole.  An SBC T of what is left with no cut is kept;
otherwise:

- 2esb: delete T's b-bridges.  A b-bridge uv lies in no 2esb set C in T:
  if T - uv is not strongly connected, u cannot reach v in it but can in
  C - uv; if H[T] - uv is not biconnected, some x separates u from v, but
  the biconnected C - uv has a u-v path avoiding x.  Having no b-bridge
  survives adding arcs back, so kept sets are 2esb in g.
- 2vsb: for the least b-articulation point x of T, search D + x for each
  SBC D of T - x; a 2vsb set C in T lies in one, as C - x is SB.  T - x
  is probed in place (`_sbc_parts`) on the dominator trees of T's cuts.

Sets of two branches share at most one (2esb) or two (2vsb) vertices, so
no kept set lies in another, and no arc is deleted twice: 2esb splits at
most m times and keeps at most m/3 sets.  Each 2vsb step shrinks the set,
so its depth is below n; `_components` checks that every step shrinks
what it splits.  The number of 2vsb sets searched has no proved bound
here.  Each set searched costs one peel, one cut report and one
SBC pass, O(m log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, filterfalse

from . import _kernels
from ._triconnected import triconnected_components
from .connectivity import (
    canonical_family, is_strongly_biconnected, scc_classes,
)
from .errors import NotStronglyBiconnectedError
from .graph import Digraph, induced_subgraph, memoized, underlying
from .sbc import masked_sbc


def _require_sb(g, op):
    if not is_strongly_biconnected(g):
        raise NotStronglyBiconnectedError(
            f"{op} requires a strongly biconnected input graph"
        )


def _immediate_dominators(n, succ, pred):
    """Immediate dominator of every vertex of the flow graph with arcs
    `succ` (and their reversal `pred`) rooted at vertex 0, which must
    reach every vertex.  The root is its own immediate dominator.

    Simple Lengauer-Tarjan (TOPLAS 1979): semidominators over a
    depth-first spanning tree, evaluated on a forest linked in reverse
    preorder with path compression, O(m log n).  The depth-first search
    and the compression both run on explicit stacks, so a long path
    cannot overflow the interpreter stack.

    EVAL is inlined where it is cheap: a vertex not yet linked is its own
    answer, and one linked straight below a forest root answers with its
    label, so only a longer forest path costs a call, to `compress`.
    On the benchmark's analyze-robust inputs that takes about 10% less
    time than one EVAL call per predecessor.
    """
    parent = [0] * n
    number = [-1] * n  # preorder number
    order = [0]  # vertex by preorder number
    number[0] = 0
    dfs_v, dfs_it = [], []
    v, it = 0, iter(succ[0])
    while True:
        for w in it:
            if number[w] == -1:
                parent[w] = v
                number[w] = len(order)
                order.append(w)
                dfs_v.append(v)
                dfs_it.append(it)
                v, it = w, iter(succ[w])
                break
        else:
            if not dfs_v:
                break
            v, it = dfs_v.pop(), dfs_it.pop()

    semi = number  # from here on, the semidominator's preorder number
    label = list(range(n))
    ancestor = [-1] * n
    idom = [0] * n
    bucket = [[] for _ in range(n)]

    def compress(v):
        # Compress the forest path from v up to, not including, its
        # forest root, top-most vertex first; label[v] is then the vertex
        # of least semidominator on it.  Called only when that path holds
        # more than v.
        path = []
        u = v
        while ancestor[ancestor[u]] != -1:
            path.append(u)
            u = ancestor[u]
        for u in reversed(path):
            a = ancestor[u]
            if semi[label[a]] < semi[label[u]]:
                label[u] = label[a]
            ancestor[u] = ancestor[a]

    for w in order[:0:-1]:
        least = semi[w]
        for v in pred[w]:
            a = ancestor[v]
            if a != -1:
                if ancestor[a] != -1:
                    compress(v)
                v = label[v]
            if semi[v] < least:
                least = semi[v]
        semi[w] = least
        bucket[order[least]].append(w)
        p = parent[w]
        ancestor[w] = p
        for v in bucket[p]:
            if ancestor[ancestor[v]] != -1:
                compress(v)
            u = label[v]
            idom[v] = u if semi[u] < semi[v] else p
        bucket[p] = []
    for w in order[1:]:
        if idom[w] != order[semi[w]]:
            idom[w] = idom[idom[w]]
    return idom


class _DominatorTree:
    """Dominator tree of a flow graph rooted at vertex 0, which must reach
    every vertex, kept as preorder intervals: `order` lists the vertices
    in preorder of the tree, v sits at order[first[v]] and its subtree
    D(v), the vertices v dominates, fills the next size[v] places.
    `heads` holds the flow-graph bridge heads (`_flow_bridge_heads`)."""

    __slots__ = ("idom", "order", "first", "size", "heads")

    def __init__(self, succ, pred):
        n = len(succ)
        idom = _immediate_dominators(n, succ, pred)
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[idom[v]].append(v)
        first = [0] * n
        size = [1] * n
        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            first[v] = len(order)
            order.append(v)
            stack.extend(children[v])
        for v in reversed(order[1:]):
            size[idom[v]] += size[v]
        self.idom, self.order, self.first, self.size = idom, order, first, size
        self.heads = frozenset(_flow_bridge_heads(self, pred))

    def subtree(self, v):
        """D(v) in preorder, v first."""
        start = self.first[v]
        return self.order[start:start + self.size[v]]


def _flow_bridge_heads(tree, pred):
    """Vertices v != 0 whose arc from idom(v) is a bridge of the flow graph
    of `tree`: every path from the root to v ends with that arc.

    That holds exactly when v dominates every other in-neighbour
    (Italiano, Laura and Santaroni, TCS 2012): each lies in v's preorder
    interval, first[v] <= first[w] < first[v] + size[v].  Some
    in-neighbour ends a v-free path from the root, so the condition also
    makes idom(v) an in-neighbour.
    """
    idom, first, size = tree.idom, tree.first, tree.size
    heads = []
    for v in range(1, len(idom)):
        parent = idom[v]
        low = first[v]
        high = low + size[v]
        for w in pred[v]:
            if w != parent and not low <= first[w] < high:
                break
        else:
            heads.append(v)
    return heads


@memoized
def _dominators(g):
    """Dominator trees of strongly connected g (n >= 2) and of its
    reverse, both rooted at 0, computed once per graph."""
    return (
        _DominatorTree(g.out_adj, g.in_adj),
        _DominatorTree(g.in_adj, g.out_adj),
    )


@memoized
def _strong_cuts(g):
    """Strong bridges and strong articulation points of strongly connected
    g: the arcs and the vertices whose deletion leaves it not strongly
    connected, each as a sorted tuple.

    Both come from the dominators of g and of its reverse, rooted at 0
    (Italiano, Laura and Santaroni, TCS 2012).  The strong bridges are
    the flow-graph bridges of either side, the reverse side's read
    backwards.  A vertex other than the root is a strong articulation
    point exactly when it dominates some other vertex on either side; the
    root is one when its split, every SCC of g - 0, has more than one
    class.  Computed once per graph and kept on it.
    """
    if g.n < 2:
        return (), ()
    forward, reverse = _dominators(g)
    arcs = {(forward.idom[v], v) for v in forward.heads}
    arcs.update((v, reverse.idom[v]) for v in reverse.heads)
    points = set(forward.idom[1:]) | set(reverse.idom[1:])
    points.discard(0)
    if len(_split(g, 0)) > 1:
        points.add(0)
    return tuple(sorted(arcs)), tuple(sorted(points))


def _cut_region(g, d):
    """Vertices outside the SCC of vertex 0 in g - d, ascending, for an
    arc or a vertex d of strongly connected g: every vertex but 0 when d
    is 0, else empty exactly when d is not a strong cut.  The module
    docstring has the argument."""
    forward, reverse = _dominators(g)
    if isinstance(d, tuple):
        tail, head = d
        region = set()
        if head in forward.heads and forward.idom[head] == tail:
            region.update(forward.subtree(head))
        if tail in reverse.heads and reverse.idom[tail] == head:
            region.update(reverse.subtree(tail))
    else:
        region = set(forward.subtree(d))
        region.update(reverse.subtree(d))
        region.discard(d)
    return sorted(region)


def _without_arc(adj, tail, head):
    """adj with head dropped from row tail; the other rows are shared."""
    rows = list(adj)
    rows[tail] = tuple(w for w in adj[tail] if w != head)
    return rows


@memoized
def _split(g, d):
    """SCC classes of strongly connected g minus the arc or vertex d that
    leave out the class of vertex 0, ordered by first member: the SCCs of
    d's region alone, by one SCC call, or none when the region is empty.
    For d = 0 they are every class of g - 0.  Computed once per graph and
    deletion, and kept as a tuple of int tuples, which the cyclic garbage
    collector untracks once it has seen them, so later full collections
    do not walk the kept splits."""
    region = _cut_region(g, d)
    if not region:
        return ()
    adj = _without_arc(g.out_adj, *d) if isinstance(d, tuple) else g.out_adj
    return tuple(scc_classes(g.n, adj, region))


@memoized
def _separations(g):
    """The vertices x of H, the underlying graph of strongly biconnected
    g, with H - x not biconnected, and the edges uv (u < v) with H - uv
    not biconnected, each as a frozenset, read off one pass over the
    triconnected components of H: the poles of every virtual edge and
    the vertices of every S-node with four or more vertices, and the real
    edges of the S-nodes.  At n <= 2 the pass is skipped, as H has no
    such x or uv; the module docstring has the argument.  Computed once
    per graph and kept on it."""
    points = set()
    edges = set()
    if g.n >= 3:
        for kind, real, virtual in triconnected_components(
            g.n, underlying(g).adj
        ):
            for a, b in virtual:
                points.update((a, b))
            if kind == "S":
                edges.update(real)
                if len(real) + len(virtual) >= 4:
                    points.update(v for edge in real + virtual for v in edge)
    return frozenset(points), frozenset(edges)


@memoized
def _root_split(g, gone):
    """Strongly biconnected components of g[V - gone], or () when it is
    one strongly biconnected set, for a non-empty frozenset `gone` that
    leaves the class of vertex 0 of some g - d: d's split, with d when d
    is a vertex.  That class is strongly connected and holds H's edges
    inside it (an arc d has an end in its own region), so its components
    are the blocks of H[V - gone], which serve every deletion that leaves
    the same class.  A probe lists these blocks; () lists none, so the
    whole class is the probe's implicit part.

    g must be strongly biconnected, as every probe's g is.  When gone is
    one vertex x, H - x is biconnected exactly when x is in no separation
    pair of H, so V - x is one set with no kernel call, and splits when
    x is in one; for n <= 3, `_separations` lists no vertex and H - x is
    K1 or K2, so the answer holds there too.  Any other set is first
    tested by `_kernels.biconnected`, which reads gone as a mask and
    stops at the first block it closes; only a class that splits pays
    the `bcc` that lists its blocks.  Computed once per graph and set;
    only the parts are kept."""
    adj = underlying(g).adj
    if len(gone) == 1:
        (x,) = gone
        if x not in _separations(g)[0]:
            return ()
    elif _kernels.biconnected(g.n, adj, gone):
        return ()
    root = list(filterfalse(gone.__contains__, range(g.n)))
    return tuple(masked_sbc(g.n, adj, [root]))


def _sbc_parts(g, d):
    """The parts of the probe of the arc or vertex d of strongly connected
    g: strongly biconnected components of g - d (see `masked_sbc`), with
    g's vertex ids.  Like `_split`, they list only what d separates:
    every vertex in no listed part, d aside, shares one implicit part,
    the class of vertex 0 when it is one strongly biconnected set.

    They are the blocks of H inside each class of the split and inside
    the class of vertex 0, every vertex left outside the split and d,
    which `_root_split` lists, shared by every deletion that leaves the
    same class.  If d is an arc that is no strong cut, that class is all
    of V and holds the arc: its blocks are read with the arc's edge out
    of H, and every part is listed.

    g must be strongly biconnected, and an arc d that is no strong cut
    must have no antiparallel twin.  Every probe meets this: such an arc
    is probed only as a b-bridge, and `cut_report` counts it as one only
    when H has its edge from that one arc."""
    split = _split(g, d)
    und_adj = underlying(g).adj
    if isinstance(d, tuple) and not split:
        # The one class, all of V, holds both ends of the arc, which has
        # no twin: its underlying edge goes too.
        tail, head = d
        und_adj = _without_arc(und_adj, tail, head)
        und_adj = _without_arc(und_adj, head, tail)
        return masked_sbc(g.n, und_adj, [list(range(g.n))])
    parts = masked_sbc(g.n, und_adj, split)
    gone = frozenset(chain(*split, [] if isinstance(d, tuple) else [d]))
    if len(gone) < g.n:
        parts += _root_split(g, gone)
    return parts


@dataclass(frozen=True)
class CutReport:
    """All single-failure weak points of one strongly biconnected graph:
    the deletions that break strong biconnectivity (b-bridges and
    b-articulation points) and, among them, those that break strong
    connectivity."""

    b_bridges: tuple
    b_articulation_points: tuple
    strong_bridges: tuple
    strong_articulation_points: tuple


@memoized
def cut_report(g):
    """b-bridges, b-articulation points, strong bridges and strong
    articulation points of strongly biconnected g, each in canonical
    order, computed once per graph.

    The strong cuts come from `_strong_cuts`, in O(m log n).  The rest is
    read off the triconnected components of the underlying graph H
    (Hopcroft-Tarjan with Gutwenger-Mutzel's corrections), in O(n + m),
    by `_separations`: the x with H - x not biconnected are b-articulation
    points, and the uv with H - uv not biconnected give b-bridges.
    """
    _require_sb(g, "cut_report")
    strong_arcs, strong_points = _strong_cuts(g)
    separating, split = _separations(g)
    # A split edge is a b-bridge when H has it from one arc only.
    bridges = set(strong_arcs)
    for a, b in split:
        forward = g.has_edge(a, b)
        if forward != g.has_edge(b, a):
            bridges.add((a, b) if forward else (b, a))
    return CutReport(
        b_bridges=tuple(sorted(bridges)),
        b_articulation_points=tuple(sorted(separating.union(strong_points))),
        strong_bridges=strong_arcs,
        strong_articulation_points=strong_points,
    )


def b_bridges(g):
    """Arcs whose deletion leaves a graph that is not strongly biconnected,
    in canonical (tail, head) order."""
    _require_sb(g, "b_bridges")
    return list(cut_report(g).b_bridges)


def b_articulation_points(g):
    """Vertices whose deletion leaves a graph that is not strongly
    biconnected."""
    _require_sb(g, "b_articulation_points")
    return cut_report(g).b_articulation_points


def is_2_edge_strongly_biconnected(g):
    """More than two vertices, strongly biconnected, and no b-bridges."""
    if g.n <= 2 or not is_strongly_biconnected(g):
        return False
    return not cut_report(g).b_bridges


def is_2_vertex_strongly_biconnected(g):
    """More than two vertices, strongly biconnected, and no b-articulation
    points."""
    if g.n <= 2 or not is_strongly_biconnected(g):
        return False
    return not cut_report(g).b_articulation_points


def _peeled(h):
    """Vertices of h left, ascending, once every vertex with fewer than
    two in- or out-neighbours among those left is dropped, repeatedly."""
    ins = [len(row) for row in h.in_adj]
    outs = [len(row) for row in h.out_adj]
    dropped = [a < 2 or b < 2 for a, b in zip(ins, outs)]
    stack = list(compress(range(h.n), dropped))
    while stack:
        v = stack.pop()
        for counts, neighbours in ((ins, h.out_adj[v]), (outs, h.in_adj[v])):
            for w in neighbours:
                counts[w] -= 1
                if counts[w] < 2 and not dropped[w]:
                    dropped[w] = True
                    stack.append(w)
    return list(filterfalse(dropped.__getitem__, range(h.n)))


def _components(g, split):
    """Sets kept by the iteration of the module docstring.  split(h[T]) is
    None to keep T, else the (graph, id map) pairs to search next, each
    with fewer vertices or fewer arcs than h[T]; a child as large as its
    parent raises RuntimeError, where the search would never end."""
    found = []
    stack = [(g, range(g.n))]
    while stack:
        h, names = stack.pop()
        classes = scc_classes(h.n, h.out_adj, _peeled(h))
        for c in masked_sbc(h.n, underlying(h).adj, classes):
            if len(c) < 3:
                continue
            sub, index = induced_subgraph(h, c)
            ids = [names[v] for v in index]
            children = split(sub)
            if children is None:
                found.append(ids)
                continue
            for k, old in children:
                if (k.n, k.m) == (sub.n, sub.m):
                    raise RuntimeError(f"a split of {ids} kept all of it")
                stack.append((k, [ids[v] for v in old]))
    return canonical_family(found)


def _drop_b_bridges(h):
    bridges = set(cut_report(h).b_bridges)
    if bridges:
        rest = (e for e in h.edges if e not in bridges)
        return [(Digraph._from_valid(h.n, rest), range(h.n))]


def _split_at_b_articulation_point(h):
    points = cut_report(h).b_articulation_points
    if points:
        x = points[0]
        parts = _sbc_parts(h, x)
        listed = {x, *chain(*parts)}
        parts.append(list(filterfalse(listed.__contains__, range(h.n))))
        return [induced_subgraph(h, (x, *d)) for d in parts if len(d) >= 2]


def components_2esb(g):
    """Maximal vertex sets inducing 2-edge-strongly-biconnected subgraphs."""
    return _components(g, _drop_b_bridges)


def components_2vsb(g):
    """Maximal vertex sets inducing 2-vertex-strongly-biconnected subgraphs."""
    return _components(g, _split_at_b_articulation_point)

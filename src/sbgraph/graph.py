"""Immutable simple directed graphs and derived-graph views.

Vertices are dense 0-based integers.  Edges are ordered (tail, head) pairs;
self-loops and duplicate ordered pairs are rejected, antiparallel pairs are
allowed.  Derived views (edge/vertex deletion, induced subgraphs) allocate
fresh graphs.

A `Digraph` keeps its vertex count n, its `edges` in input order, its
sorted out- and in-rows (`out_adj` and `in_adj`) and its memo.  An
`UndirectedGraph` keeps only its sorted neighbour rows (`adj`) and its
memo: its `edges`, each (a, b) with a < b in ascending order, are read
off the rows when asked for, and its `m`, equality and hash read the
rows too.  Neither keeps another copy of its edges: `has_edge` bisects
one sorted row, in O(log deg).

Because a graph never changes, every fact derived from it alone is
computed once, on first use, and kept in the graph's memo (see
`memoized`); both classes carry one.  A digraph keeps:

- the underlying undirected graph, read off the sorted out- and in-rows
  of each vertex with no further validation (`underlying`);
- one whole-graph SCC pass, its SCC classes (`connectivity`), while the
  underlying graph keeps its own whole-graph block pass, read only once
  the digraph is known to be strongly connected; the two give both
  verdicts and the strongly biconnected components;
- the dominator trees of the graph and of its reverse, the strong cuts,
  the vertices and edges of the underlying graph whose deletion leaves
  it not biconnected, and the cut report;
- for each arc or vertex deleted, the SCC classes that the deletion
  leaves outside the class of vertex 0, one entry per deletion, so a
  caller that probes only arcs never splits a vertex;
- for each set of vertices a deletion leaves outside that class, the
  parts the class splits into, or none when it is one strongly
  biconnected set.

No caller modifies a kept value, and two threads that fill an entry at
once store equal ones, so instances can be shared freely between
concurrent computations.
"""

from __future__ import annotations

import functools
from bisect import bisect_left

from .errors import (
    DuplicateEdgeError,
    GuardError,
    MissingEdgeError,
    SelfLoopError,
    VertexRangeError,
)

# Largest vertex count a graph accepts.  A graph holds a few Python
# objects per vertex, about 150 bytes, and allocates them before it reads
# any arc, so an unchecked count alone could exhaust memory.
MAX_VERTICES = 1_000_000


def _check_vertex_count(n):
    """Refuse n > MAX_VERTICES before anything is allocated for it."""
    if n > MAX_VERTICES:
        raise GuardError(
            f"vertex count n={n} is more than the limit of {MAX_VERTICES}"
        )


def _in_row(rows, a, b):
    """True when b is in the sorted row a; False for any a out of range."""
    row = rows[a] if 0 <= a < len(rows) else ()
    i = bisect_left(row, b)
    return i < len(row) and row[i] == b


class Digraph:
    """A simple directed graph with a fixed vertex set {0, ..., n-1},
    n <= MAX_VERTICES."""

    # _memo holds the values of the `memoized` functions of this graph.
    __slots__ = ("n", "edges", "out_adj", "in_adj", "_memo")

    def __init__(self, n, edges):
        if n < 0:
            raise VertexRangeError(f"vertex count must be >= 0, got {n}")
        # Insertion-ordered, so its keys are `edges` in input order.
        seen = {}
        for tail, head in edges:
            if not (0 <= tail < n) or not (0 <= head < n):
                raise VertexRangeError(
                    f"edge ({tail}, {head}) out of range for n={n}"
                )
            if tail == head:
                raise SelfLoopError(f"self-loop at vertex {tail}")
            if (tail, head) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({tail}, {head})")
            seen[tail, head] = None
        self._fill(n, tuple(seen))

    @classmethod
    def _from_valid(cls, n, edges):
        """Construct without validation; callers guarantee simple edges in range."""
        g = object.__new__(cls)
        g._fill(n, tuple(edges))
        return g

    def _fill(self, n, edges):
        _check_vertex_count(n)
        self.n = n
        self.edges = edges
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for tail, head in edges:
            out[tail].append(head)
            inc[head].append(tail)
        # Sorted neighbour lists make every traversal independent of the
        # order edges were supplied in.
        self.out_adj = tuple(tuple(sorted(a)) for a in out)
        self.in_adj = tuple(tuple(sorted(a)) for a in inc)
        self._memo = {}

    @property
    def m(self):
        return len(self.edges)

    def has_edge(self, tail, head):
        return _in_row(self.out_adj, tail, head)

    # Compare sorted rows: `edges` keeps the input order.
    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out_adj == other.out_adj

    def __hash__(self):
        return hash((self.n, self.out_adj))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m})"


def memoized(fn):
    """Decorator for a function of one graph, directed or undirected, and
    any further hashable arguments: compute fn(g, *args) on the first
    call and keep it in g's memo, keyed by the function's name and
    args."""
    name = fn.__name__

    @functools.wraps(fn)
    def cached(g, *args):
        memo = g._memo
        key = (name, args)
        if key not in memo:
            memo[key] = fn(g, *args)
        return memo[key]

    return cached


class UndirectedGraph:
    """A simple undirected graph, kept as its sorted neighbour rows; its
    `edges` are (min, max) pairs, read off the rows when asked for."""

    # _memo holds the values of the `memoized` functions of this graph.
    __slots__ = ("n", "adj", "_memo")

    def __init__(self, n, pairs):
        if n < 0:
            raise VertexRangeError(f"vertex count must be >= 0, got {n}")
        _check_vertex_count(n)
        adj = [[] for _ in range(n)]
        for a, b in pairs:
            if not (0 <= a < n) or not (0 <= b < n):
                raise VertexRangeError(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                raise SelfLoopError(f"self-loop at vertex {a}")
            adj[a].append(b)
            adj[b].append(a)
        # set() drops a pair given twice, in either order.
        self._fill(tuple(tuple(sorted(set(x))) for x in adj))

    @classmethod
    def _from_rows(cls, adj):
        """Construct without validation from neighbour rows; callers
        guarantee sorted, symmetric rows of ids in range, with no
        self-loop."""
        u = object.__new__(cls)
        u._fill(adj)
        return u

    def _fill(self, adj):
        self.n = len(adj)
        self.adj = adj
        self._memo = {}

    @property
    def edges(self):
        # Each edge (a, b), a < b, is read off row a, so they ascend.
        return tuple(
            [(a, b) for a, row in enumerate(self.adj) for b in row if b > a]
        )

    @property
    def m(self):
        return sum(map(len, self.adj)) // 2

    def has_edge(self, a, b):
        return _in_row(self.adj, a, b)

    # The rows are sorted, so equal graphs have equal rows.
    def __eq__(self, other):
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


def build_digraph(n, edges):
    """Validate and build a Digraph from (tail, head) pairs."""
    return Digraph(n, edges)


def remove_edge(g, edge):
    """Return a copy of g without the given (tail, head) arc."""
    edge = tuple(edge)
    if not g.has_edge(*edge):
        raise MissingEdgeError(f"edge {edge} not in graph")
    return Digraph._from_valid(g.n, (e for e in g.edges if e != edge))


def remove_vertex(g, w):
    """Delete vertex w and its incident arcs.

    The remaining vertices are re-indexed densely; returns the new graph
    together with the old->new index map.
    """
    if not (0 <= w < g.n):
        raise VertexRangeError(f"vertex {w} out of range for n={g.n}")
    return induced_subgraph(g, [v for v in range(g.n) if v != w])


def induced_subgraph(g, vertices):
    """Restrict g to a vertex subset, re-indexed densely.

    Returns the subgraph together with the old->new index map; new ids
    follow the ascending order of the old ones.  It reads only the
    members' out-adjacency rows, in O(their out-degree) rather than O(m),
    and lists the subgraph's edges in ascending (tail, head) order.
    """
    members = sorted(set(vertices))
    for v in members:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"vertex {v} out of range for n={g.n}")
    old_to_new = {v: i for i, v in enumerate(members)}
    edges = [
        (i, old_to_new[h])
        for i, t in enumerate(members)
        for h in g.out_adj[t]
        if h in old_to_new
    ]
    return Digraph._from_valid(len(members), edges), old_to_new


@memoized
def underlying(g):
    """Forget arc directions; antiparallel arc pairs collapse to one edge.

    Each vertex's row is its sorted out- and in-rows merged, so the rows,
    already valid, are not checked again.  Built on the first call and
    kept on g, so later calls return the same graph.
    """
    return UndirectedGraph._from_rows(
        tuple([tuple(sorted({*out, *inc}))
               for out, inc in zip(g.out_adj, g.in_adj)])
    )

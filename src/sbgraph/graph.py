"""Immutable simple directed graphs and derived-graph views.

Vertices are dense 0-based integers.  Edges are ordered (tail, head) pairs;
self-loops and duplicate ordered pairs are rejected, antiparallel pairs are
allowed.  Derived views (edge/vertex deletion, induced subgraphs) allocate
fresh graphs.  Because a graph never changes, the underlying undirected
graph and the strongly-biconnected verdict are computed once, on first
use, and kept on the graph.  Both are immutable values, and two threads
that fill a slot at once store equal ones, so instances can be shared
freely between concurrent computations.
"""

from __future__ import annotations

from .errors import (
    DuplicateEdgeError,
    MissingEdgeError,
    SelfLoopError,
    VertexRangeError,
)


class Digraph:
    """A simple directed graph with a fixed vertex set {0, ..., n-1}."""

    # _underlying and _sb cache underlying(g) and is_strongly_biconnected(g):
    # None until first asked for.
    __slots__ = (
        "n", "edges", "out_adj", "in_adj", "_edge_set", "_underlying", "_sb"
    )

    def __init__(self, n, edges):
        if n < 0:
            raise VertexRangeError(f"vertex count must be >= 0, got {n}")
        edge_list = []
        seen = set()
        for tail, head in edges:
            if not (0 <= tail < n) or not (0 <= head < n):
                raise VertexRangeError(
                    f"edge ({tail}, {head}) out of range for n={n}"
                )
            if tail == head:
                raise SelfLoopError(f"self-loop at vertex {tail}")
            if (tail, head) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({tail}, {head})")
            seen.add((tail, head))
            edge_list.append((tail, head))
        self._fill(n, tuple(edge_list), seen)

    @classmethod
    def _from_valid(cls, n, edges):
        """Construct without validation; callers guarantee simple edges in range."""
        g = object.__new__(cls)
        edges = tuple(edges)
        g._fill(n, edges, set(edges))
        return g

    def _fill(self, n, edges, edge_set):
        self.n = n
        self.edges = edges
        self._edge_set = edge_set
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for tail, head in edges:
            out[tail].append(head)
            inc[head].append(tail)
        # Sorted neighbour lists make every traversal independent of the
        # order edges were supplied in.
        self.out_adj = tuple(tuple(sorted(a)) for a in out)
        self.in_adj = tuple(tuple(sorted(a)) for a in inc)
        self._underlying = None
        self._sb = None

    @property
    def m(self):
        return len(self.edges)

    def has_edge(self, tail, head):
        return (tail, head) in self._edge_set

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m})"


class UndirectedGraph:
    """A simple undirected graph; edges are stored as (min, max) pairs."""

    __slots__ = ("n", "edges", "adj", "_edge_set")

    def __init__(self, n, pairs):
        if n < 0:
            raise VertexRangeError(f"vertex count must be >= 0, got {n}")
        norm = set()
        for a, b in pairs:
            if not (0 <= a < n) or not (0 <= b < n):
                raise VertexRangeError(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                raise SelfLoopError(f"self-loop at vertex {a}")
            norm.add((a, b) if a < b else (b, a))
        self.n = n
        self.edges = tuple(sorted(norm))
        self._edge_set = norm
        adj = [[] for _ in range(n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self.adj = tuple(tuple(sorted(x)) for x in adj)

    @property
    def m(self):
        return len(self.edges)

    def has_edge(self, a, b):
        return ((a, b) if a < b else (b, a)) in self._edge_set

    def __eq__(self, other):
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

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
    old_to_new = {v: (v if v < w else v - 1) for v in range(g.n) if v != w}
    edges = [
        (old_to_new[t], old_to_new[h])
        for t, h in g.edges
        if t != w and h != w
    ]
    return Digraph._from_valid(g.n - 1, edges), old_to_new


def induced_subgraph(g, vertices):
    """Restrict g to a vertex subset, re-indexed densely.

    Returns the subgraph together with the old->new index map; new ids
    follow the ascending order of the old ones.
    """
    members = sorted(set(vertices))
    for v in members:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"vertex {v} out of range for n={g.n}")
    old_to_new = {v: i for i, v in enumerate(members)}
    keep = old_to_new.keys()
    edges = [
        (old_to_new[t], old_to_new[h])
        for t, h in g.edges
        if t in keep and h in keep
    ]
    return Digraph._from_valid(len(members), edges), old_to_new


def underlying(g):
    """Forget arc directions; antiparallel arc pairs collapse to one edge.

    Built on the first call and kept on g, so later calls return the same
    graph.
    """
    und = g._underlying
    if und is None:
        und = g._underlying = UndirectedGraph(g.n, g.edges)
    return und

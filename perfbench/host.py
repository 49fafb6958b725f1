"""A fixed piece of pure-Python graph work that times the host itself.

On a shared host other tenants slow every op by up to half for minutes
at a time.  `sample()` does the same kind of work as sbgraph's
per-deletion probes (copy a graph, drop some arcs, search it) without
touching sbgraph, so it slows with the host as the ops do, and run.py
scales every time it reports by it.  Only `time` is imported, so the
set-up measurement can take a sample before `import sbgraph` without
importing anything sbgraph would.
"""

import time

SAMPLES_PER_PASS = 8


def _graph(n=400, k=4):
    """A fixed n-vertex digraph with k out-arcs per vertex, from a linear
    congruential generator so that no module needs importing."""
    state = 12345
    adj = []
    for _ in range(n):
        out = []
        while len(out) < k:
            state = (state * 1103515245 + 12345) % 2**31
            w = state % n
            if w not in out:
                out.append(w)
        adj.append(out)
    return adj


GRAPH = _graph()


def sample():
    """Seconds taken by thirty copies of GRAPH as a dict of sets, each with
    one vertex's out-arcs dropped, and a depth-first search of each."""
    adj = GRAPH
    n = len(adj)
    t0 = time.perf_counter()
    for _ in range(3):
        for drop in range(0, n, 40):
            g = {v: set(adj[v]) for v in range(n)}
            g[drop] = set()
            seen = {0}
            stack = [0]
            while stack:
                for w in g[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return time.perf_counter() - t0

"""Seeded input generator owned by the benchmark.

Graphs are built from an open ear decomposition: a directed cycle, then
directed paths ("ears") through new vertices between two distinct
existing vertices, then random chords until the arc budget is met.  Every
step keeps the digraph strongly connected and its underlying graph
biconnected, so each graph is strongly biconnected by construction and no
rejection step is needed.  Ear length is the knob for how many single
deletions separate: short ears leave few b-bridges, long ears many.

Only Python's own `random.Random` is used, never `sbgraph.generate`, so a
change to the library cannot change the inputs it is measured on.
"""

from __future__ import annotations

import random


def ear_graph(rng, n, m, ear_min, ear_max):
    """Arcs of a strongly biconnected digraph on n >= 3 vertices.

    Ears carry ear_min..ear_max new vertices each; random chords are then
    added until there are m arcs (when the cycle and ears already have
    more, they are kept and no chord is added).  Vertex ids are shuffled
    and arcs returned in random order.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    cycle = min(n, rng.randint(3, max(3, ear_max + 1)))
    arcs = {(i, (i + 1) % cycle) for i in range(cycle)}
    k = cycle
    while k < n:
        inner = min(rng.randint(ear_min, ear_max), n - k)
        u, v = rng.sample(range(k), 2)
        path = [u, *range(k, k + inner), v]
        arcs.update(zip(path, path[1:]))
        k += inner
    while len(arcs) < min(m, n * (n - 1)):
        u, v = rng.sample(range(n), 2)
        arcs.add((u, v))
    return _shuffled(rng, n, arcs)


def glued_graph(rng, n, m, ear_min, ear_max):
    """Two ear graphs sharing exactly one vertex.

    The union is strongly connected, but the shared vertex separates the
    underlying graph, so it is not strongly biconnected.
    """
    n1 = n // 2 + 1
    n2 = n + 1 - n1
    m1 = round(m * n1 / (n1 + n2))
    first = ear_graph(rng, n1, m1, ear_min, ear_max)
    second = ear_graph(rng, n2, m - m1, ear_min, ear_max)
    joint = rng.randrange(n1)
    # Vertex 0 of the second graph becomes `joint`; the rest follow n1.
    relabel = [joint, *range(n1, n1 + n2 - 1)]
    arcs = set(first) | {(relabel[u], relabel[v]) for u, v in second}
    return _shuffled(rng, n, arcs)


def _shuffled(rng, n, arcs):
    perm = list(range(n))
    rng.shuffle(perm)
    out = sorted((perm[u], perm[v]) for u, v in arcs)
    rng.shuffle(out)
    return out


def edge_list_text(n, arcs):
    """The arcs in sbgraph's edge-list format."""
    lines = [f"{n} {len(arcs)}"]
    lines.extend(f"{u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"


# Workload pools: five size classes of four inputs each, 20 inputs per
# pass.  Sorted by latency, p50 lies between the 10th and 11th input and
# p90 between the 18th and 19th, each inside one size class rather than
# on the gap between two.  The sizes are fixed and only the graph
# structure depends on the seed, so the work per pass is comparable
# across seeds.
COPIES = 4
ROBUST = {"ears": (1, 2), "degree": 4.0, "sizes": (20, 28, 40, 52, 64)}
# The last fragile class is glued: two ear graphs sharing one vertex.
FRAGILE = {"ears": (3, 8), "degree": 2.3, "sizes": (24, 40, 64, 88, 128)}


def analyze_pool(workload, seed):
    """[(kind, n, arcs, text)] for an analyze workload, in pass order."""
    spec = {"analyze-robust": ROBUST, "analyze-fragile": FRAGILE}[workload]
    rng = random.Random(f"{workload}/{seed}")
    ear_min, ear_max = spec["ears"]
    glued_n = spec["sizes"][-1] if workload == "analyze-fragile" else None
    pool = []
    for _ in range(COPIES):
        for n in spec["sizes"]:
            m = round(spec["degree"] * n)
            if n == glued_n:
                kind, arcs = "glued", glued_graph(rng, n, m, ear_min, ear_max)
            else:
                kind, arcs = "ear", ear_graph(rng, n, m, ear_min, ear_max)
            pool.append((kind, n, arcs, edge_list_text(n, arcs)))
    return pool

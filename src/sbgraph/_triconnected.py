"""Triconnected components of a biconnected graph.

Hopcroft and Tarjan, "Dividing a graph into triconnected components"
(SIAM J. Comput. 1973), with the corrections of Gutwenger and Mutzel,
"A linear time implementation of SPQR-trees" (GD 2000, LNCS 1984).  The
algorithm splits the graph at its separation pairs into split components
(triangles, triple bonds and triconnected graphs), joining each split with
a pair of virtual edges, and then merges bonds that share a virtual edge
and polygons that share one.  The result is unique: it names the nodes of
the SPQR tree, and each virtual edge left over joins two of them.

- an S-node is a polygon (a cycle);
- a P-node is a bond (three or more edges between one pair of vertices);
- an R-node is a triconnected graph.

Every phase runs on explicit stacks, so a long path cannot overflow the
interpreter stack.  The whole pass is O(n + m).
"""

from __future__ import annotations

_EOS = -1  # end-of-segment marker on the triple stack: no vertex is -1


def triconnected_components(n, edges):
    """Triconnected components of the simple biconnected graph on vertices
    0 .. n-1, n >= 3, with the undirected `edges` (pairs of vertices).

    Returns a list of (kind, real, virtual): kind is "S", "P" or "R";
    real holds the input edges in the component, as given; virtual holds
    its virtual edges, as vertex pairs, each shared with exactly one other
    component.
    """
    m = len(edges)
    src = [a for a, _ in edges]
    tgt = [b for _, b in edges]
    incident = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        incident[a].append(e)
        incident[b].append(e)

    # Depth-first search from 0: number (from 1), parent, low points,
    # descendant counts, and every edge oriented as a tree arc (parent to
    # child) or a frond (descendant to ancestor).
    number = [0] * n
    parent = [-1] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    tree = [False] * m
    typed = [False] * m
    tree_arc = [-1] * n
    number[0] = low1[0] = low2[0] = count = 1
    dfs_v, dfs_it = [0], [iter(incident[0])]
    while dfs_v:
        v = dfs_v[-1]
        for e in dfs_it[-1]:
            if typed[e]:
                continue
            typed[e] = True
            w = src[e] + tgt[e] - v
            src[e], tgt[e] = v, w
            if not number[w]:
                tree[e] = True
                tree_arc[w] = e
                parent[w] = v
                count += 1
                number[w] = low1[w] = low2[w] = count
                dfs_v.append(w)
                dfs_it.append(iter(incident[w]))
                break
            k = number[w]
            if k < low1[v]:
                low2[v] = low1[v]
                low1[v] = k
            elif low1[v] < k < low2[v]:
                low2[v] = k
        else:
            dfs_v.pop()
            dfs_it.pop()
            if dfs_v:
                u = parent[v]
                if low1[v] < low1[u]:
                    low2[u] = min(low1[u], low2[v])
                    low1[u] = low1[v]
                elif low1[v] == low1[u]:
                    low2[u] = min(low2[u], low2[v])
                else:
                    low2[u] = min(low2[u], low1[v])
                nd[u] += nd[v]

    # The acceptable adjacency structure: out-edges bucket-sorted by phi.
    buckets = [[] for _ in range(3 * n + 3)]
    for e in range(m):
        w = tgt[e]
        if not tree[e]:
            buckets[3 * number[w] + 1].append(e)
        elif low2[w] < number[src[e]]:
            buckets[3 * low1[w]].append(e)
        else:
            buckets[3 * low1[w] + 2].append(e)
    out = [[] for _ in range(n)]
    in_adj = [0] * m  # index of an edge in the list of its source
    for bucket in buckets:
        for e in bucket:
            adj = out[src[e]]
            in_adj[e] = len(adj)
            adj.append(e)

    # Second search along that order: mark the first edge of every path,
    # renumber so that each subtree is the interval [v, v + nd(v)), the
    # first child's subtree on top, and list the fronds entering each
    # vertex in visiting order.  An entry of a frond list is [source,
    # alive], so deleting a frond is O(1).
    newnum = [0] * n
    starts = [False] * m
    fronds_in = [[] for _ in range(n)]
    in_high = [None] * m
    left = n
    new_path = True
    newnum[0] = 1
    dfs_v, dfs_it = [0], [iter(out[0])]
    while dfs_v:
        v = dfs_v[-1]
        for e in dfs_it[-1]:
            if new_path:
                new_path = False
                starts[e] = True
            w = tgt[e]
            if tree[e]:
                newnum[w] = left - nd[w] + 1
                dfs_v.append(w)
                dfs_it.append(iter(out[w]))
                break
            entry = [newnum[v], True]
            fronds_in[w].append(entry)
            in_high[e] = entry
            new_path = True
        else:
            dfs_v.pop()
            dfs_it.pop()
            left -= 1

    # From here on a vertex is its new number, 1 .. n.
    size = n + 1
    old = [0] * size
    renumber = [0] * size  # old number -> new number
    for v in range(n):
        old[newnum[v]] = v
        renumber[number[v]] = newnum[v]
    L1 = [0] * size
    L2 = [0] * size
    ND = [0] * size
    father = [0] * size
    degree = [0] * size
    A = [None] * size
    high_list = [None] * size  # frond sources, the first visited last
    arc_in = [-1] * size
    for v in range(n):
        k = newnum[v]
        L1[k] = renumber[low1[v]]
        L2[k] = renumber[low2[v]]
        ND[k] = nd[v]
        father[k] = newnum[parent[v]] if v else 0
        degree[k] = len(incident[v])
        A[k] = out[v]
        fronds_in[v].reverse()
        high_list[k] = fronds_in[v]
        arc_in[k] = tree_arc[v]
    src = [newnum[v] for v in src]
    tgt = [newnum[v] for v in tgt]
    first = [0] * size  # no edge of A[v] before this index is alive

    def new_edge(a, b, is_tree=False):
        src.append(a)
        tgt.append(b)
        tree.append(is_tree)
        in_adj.append(-1)
        in_high.append(None)
        return len(src) - 1

    def high(v):
        fronds = high_list[v]
        while fronds and not fronds[-1][1]:
            fronds.pop()
        return fronds[-1][0] if fronds else 0

    def drop_high(e):
        entry = in_high[e]
        if entry is not None:
            entry[1] = False
            in_high[e] = None

    def first_child(w):
        adj = A[w]
        i = first[w]
        while i < len(adj) and adj[i] is None:
            i += 1
        first[w] = i
        return tgt[adj[i]] if i < len(adj) else 0

    def kind(edges):
        return "R" if len(edges) >= 4 else "S"

    # The path search: split components come off the edge stack at each
    # type-2 and type-1 separation pair, the triple stack holding the
    # candidate type-2 pairs (h, a, b) of the current path segments.
    comps = []
    estack = []
    th, ta, tb = [0], [_EOS], [0]
    # A frame is [vertex, its edges with their indices, outv, the tree
    # arc being searched and its index].
    frames = [[1, enumerate(A[1]), len(A[1]), -1, 0]]
    while True:
        frame = frames[-1]
        v = frame[0]
        for i, e in frame[1]:
            if e is None:
                continue
            w = tgt[e]
            if tree[e]:
                if starts[e]:
                    lw = L1[w]
                    if ta[-1] > lw:
                        y = 0
                        while ta[-1] > lw:
                            y = max(y, th.pop())
                            ta.pop()
                            b = tb.pop()
                        th.append(max(y, w + ND[w] - 1))
                        ta.append(lw)
                        tb.append(b)
                    else:
                        th.append(w + ND[w] - 1)
                        ta.append(lw)
                        tb.append(v)
                    th.append(0)
                    ta.append(_EOS)
                    tb.append(0)
                frame[3] = e
                frame[4] = i
                frames.append([w, enumerate(A[w]), len(A[w]), -1, 0])
                break
            if starts[e]:
                if ta[-1] > w:
                    y = 0
                    while ta[-1] > w:
                        y = max(y, th.pop())
                        ta.pop()
                        b = tb.pop()
                    th.append(y)
                    ta.append(w)
                    tb.append(b)
                else:
                    th.append(v)
                    ta.append(w)
                    tb.append(v)
            estack.append(e)
        else:
            frames.pop()
            if not frames:
                break
            v, _, outv, e, i = frame = frames[-1]
            adj = A[v]
            # Back from the tree arc e = A[v][i] to w.
            w = tgt[e]
            estack.append(arc_in[w])

            # Type-2 pairs (v, b), and vertices w of degree 2.
            while v != 1:
                chain = degree[w] == 2 and first_child(w) > w
                if ta[-1] != v and not chain:
                    break
                if ta[-1] == v and father[tb[-1]] == v:
                    th.pop()
                    ta.pop()
                    tb.pop()
                    continue
                e_ab = -1
                if chain:
                    e1 = estack.pop()
                    e2 = estack.pop()
                    A[w][in_adj[e2]] = None
                    x = tgt[e2]
                    virtual = new_edge(v, x)
                    degree[x] -= 1
                    degree[v] -= 1
                    comps.append(["S", [e1, e2, virtual]])
                    if estack:
                        top = estack[-1]
                        if src[top] == x and tgt[top] == v:
                            e_ab = estack.pop()
                            A[x][in_adj[e_ab]] = None
                            drop_high(e_ab)
                else:
                    h = th.pop()
                    ta.pop()
                    b = tb.pop()
                    comp = []
                    while estack:
                        xy = estack[-1]
                        x, y = src[xy], tgt[xy]
                        if not (v <= x <= h and v <= y <= h):
                            break
                        estack.pop()
                        if (x == v and y == b) or (x == b and y == v):
                            e_ab = xy
                            A[x][in_adj[xy]] = None
                            drop_high(xy)
                        else:
                            if x != v or in_adj[xy] != i:
                                A[x][in_adj[xy]] = None
                                drop_high(xy)
                            comp.append(xy)
                            degree[x] -= 1
                            degree[y] -= 1
                    virtual = new_edge(v, b)
                    comp.append(virtual)
                    comps.append([kind(comp), comp])
                    x = b
                if e_ab >= 0:
                    bond = new_edge(v, x)
                    comps.append(["P", [e_ab, virtual, bond]])
                    virtual = bond
                    degree[x] -= 1
                    degree[v] -= 1
                estack.append(virtual)
                adj[i] = virtual
                in_adj[virtual] = i
                tree[virtual] = True
                degree[x] += 1
                degree[v] += 1
                father[x] = v
                arc_in[x] = virtual
                w = x

            # A type-1 pair (lowpt1(w), v).
            lw = L1[w]
            if L2[w] >= v and lw < v and (father[v] != 1 or outv >= 2):
                comp = []
                x = y = 0
                top = w + ND[w]
                while estack:
                    xy = estack[-1]
                    x, y = src[xy], tgt[xy]
                    if not (w <= x < top or w <= y < top):
                        break
                    estack.pop()
                    comp.append(xy)
                    drop_high(xy)
                    degree[x] -= 1
                    degree[y] -= 1
                virtual = new_edge(v, lw)
                comp.append(virtual)
                comps.append([kind(comp), comp])
                if (x == v and y == lw) or (x == lw and y == v):
                    eh = estack.pop()
                    if src[eh] != v or in_adj[eh] != i:
                        A[src[eh]][in_adj[eh]] = None
                    bond = new_edge(v, lw)
                    comps.append(["P", [eh, virtual, bond]])
                    in_high[bond] = in_high[eh]
                    virtual = bond
                    degree[v] -= 1
                    degree[lw] -= 1
                if lw != father[v]:
                    estack.append(virtual)
                    adj[i] = virtual
                    in_adj[virtual] = i
                    if in_high[virtual] is None and high(lw) < v:
                        entry = [v, True]
                        high_list[lw].append(entry)
                        in_high[virtual] = entry
                    degree[v] += 1
                    degree[lw] += 1
                else:
                    adj[i] = None
                    bond = new_edge(lw, v, True)
                    eh = arc_in[v]
                    comps.append(["P", [virtual, bond, eh]])
                    arc_in[v] = bond
                    in_adj[bond] = in_adj[eh]
                    A[lw][in_adj[eh]] = bond

            if starts[e]:
                while ta[-1] != _EOS:
                    th.pop()
                    ta.pop()
                    tb.pop()
                th.pop()
                ta.pop()
                tb.pop()
            while (
                ta[-1] != _EOS and ta[-1] != v and tb[-1] != v
                and high(v) > th[-1]
            ):
                th.pop()
                ta.pop()
                tb.pop()
            frame[2] = outv - 1

    if estack:
        comps.append([kind(estack), estack])
    return _merge(comps, edges, src, tgt, old)


def _merge(comps, edges, src, tgt, old):
    """Join the bonds that share a virtual edge, and the polygons that
    share one, dropping the shared edges; the ids of `edges` are real."""
    m = len(edges)
    owners = [[] for _ in range(len(src) - m)]
    for c, (_, ids) in enumerate(comps):
        for e in ids:
            if e >= m:
                owners[e - m].append(c)
    joins = [[] for _ in comps]
    dropped = [False] * len(owners)
    for k, (c, d) in enumerate(owners):
        if comps[c][0] == comps[d][0] != "R":
            joins[c].append(d)
            joins[d].append(c)
            dropped[k] = True
    seen = [False] * len(comps)
    result = []
    for c in range(len(comps)):
        if seen[c]:
            continue
        seen[c] = True
        stack = [c]
        real = []
        virtual = []
        while stack:
            d = stack.pop()
            for e in comps[d][1]:
                if e < m:
                    real.append(edges[e])
                elif not dropped[e - m]:
                    virtual.append((old[src[e]], old[tgt[e]]))
            for j in joins[d]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        result.append((comps[c][0], real, virtual))
    return result

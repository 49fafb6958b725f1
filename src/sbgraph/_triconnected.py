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

The pass reads the graph as its sorted neighbour rows, each edge listed
in the rows of both its ends, and builds no edge list first: the first
depth-first search gives each edge its id, 0 .. m-1 in the order the
search meets the edges, as it orients the edge into a tree arc or a
frond, and every later phase names real edges by those ids and virtual
ones by the ids after them.  Every search runs on explicit stacks, so a
long path cannot overflow the interpreter stack, and keeps the vertex it
scans in local variables (the idiom of `_kernels.pure`).  The
acceptable adjacency order (by phi) comes from a bucket sort over 3n + 3
buckets, so the whole pass is O(n + m).
"""

from __future__ import annotations

_EOS = -1  # end-of-segment marker on the triple stack: no vertex is -1


def triconnected_components(n, adj):
    """Triconnected components of the simple biconnected graph on vertices
    0 .. n-1, n >= 3, given by its sorted neighbour rows `adj` (each edge
    listed in the rows of both its ends).

    Returns a list of (kind, real, virtual): kind is "S", "P" or "R";
    real holds the graph's edges in the component, each as (a, b) with
    a < b; virtual holds its virtual edges, as vertex pairs, each shared
    with exactly one other component.
    """
    # Depth-first search from 0 over the rows: number (from 1), parent,
    # low points and descendant counts.  Each edge gets its id, the next
    # one, when the search first meets it, oriented as it is met: a tree
    # arc (parent to child) or a frond (descendant to ancestor).  At v
    # the parent is skipped, as its tree arc has its id, and so is a
    # neighbour numbered after v, a descendant whose frond to v has one.
    number = [0] * n
    parent = [-1] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    src = []
    tgt = []
    tree = []
    tree_arc = [-1] * n
    number[0] = count = 1
    dfs_v, dfs_it = [], []
    v, it, nv, pv, l1, l2 = 0, iter(adj[0]), 1, -1, 1, 1
    while True:
        for w in it:
            k = number[w]
            if not k:
                tree_arc[w] = len(src)
                src.append(v)
                tgt.append(w)
                tree.append(True)
                parent[w] = v
                low1[v] = l1
                low2[v] = l2
                dfs_v.append(v)
                dfs_it.append(it)
                count += 1
                number[w] = nv = l1 = l2 = count
                v, it, pv = w, iter(adj[w]), v
                break
            if k < nv and w != pv:
                src.append(v)
                tgt.append(w)
                tree.append(False)
                if k < l1:
                    l2 = l1
                    l1 = k
                elif l1 < k < l2:
                    l2 = k
        else:
            low1[v] = l1
            low2[v] = l2
            if not dfs_v:
                break
            u, it = dfs_v.pop(), dfs_it.pop()
            nd[u] += nd[v]
            k1 = low1[u]
            k2 = low2[u]
            if l1 < k1:
                l2 = k1 if k1 < l2 else l2
            elif l1 == k1:
                l2 = k2 if k2 < l2 else l2
            else:
                l2 = k2 if k2 < l1 else l1
                l1 = k1
            v, nv, pv = u, number[u], parent[u]
    m = len(src)

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
            row = out[src[e]]
            in_adj[e] = len(row)
            row.append(e)

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
    v, it = 0, iter(out[0])
    while True:
        for e in it:
            if new_path:
                new_path = False
                starts[e] = True
            w = tgt[e]
            if tree[e]:
                newnum[w] = left - nd[w] + 1
                dfs_v.append(v)
                dfs_it.append(it)
                v, it = w, iter(out[w])
                break
            entry = [newnum[v], True]
            fronds_in[w].append(entry)
            in_high[e] = entry
            new_path = True
        else:
            left -= 1
            if not dfs_v:
                break
            v, it = dfs_v.pop(), dfs_it.pop()

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
        degree[k] = len(adj[v])
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
        row = A[w]
        i = first[w]
        while i < len(row) and row[i] is None:
            i += 1
        first[w] = i
        return tgt[row[i]] if i < len(row) else 0

    def kind(edges):
        return "R" if len(edges) >= 4 else "S"

    # The path search: split components come off the edge stack at each
    # type-2 and type-1 separation pair, the triple stack holding the
    # candidate type-2 pairs (h, a, b) of the current path segments.
    comps = []
    estack = []
    th, ta, tb = [0], [_EOS], [0]
    # The vertex being searched is v, with it over its edges and their
    # indices, and outv; a frame (v, it, outv, the tree arc being searched
    # and its index) is pushed for each ancestor.
    frames = []
    v, it, outv = 1, enumerate(A[1]), len(A[1])
    while True:
        for i, e in it:
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
                frames.append((v, it, outv, e, i))
                v, it, outv = w, enumerate(A[w]), len(A[w])
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
            if not frames:
                break
            v, it, outv, e, i = frames.pop()
            row = A[v]
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
                row[i] = virtual
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
                    row[i] = virtual
                    in_adj[virtual] = i
                    if in_high[virtual] is None and high(lw) < v:
                        entry = [v, True]
                        high_list[lw].append(entry)
                        in_high[virtual] = entry
                    degree[v] += 1
                    degree[lw] += 1
                else:
                    row[i] = None
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
            outv -= 1

    if estack:
        comps.append([kind(estack), estack])
    return _merge(comps, m, src, tgt, old)


def _merge(comps, m, src, tgt, old):
    """Join the bonds that share a virtual edge, and the polygons that
    share one, dropping the shared edges; the first m edge ids are real."""
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
                    a, b = old[src[e]], old[tgt[e]]
                    real.append((a, b) if a < b else (b, a))
                elif not dropped[e - m]:
                    virtual.append((old[src[e]], old[tgt[e]]))
            for j in joins[d]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        result.append((comps[c][0], real, virtual))
    return result

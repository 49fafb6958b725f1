"""Pure-Python traversal kernels (fallback backend).

Both kernels accept an optional vertex subset and then behave exactly as if
they were run on the induced subgraph, without materializing it.  DFS uses
explicit stacks so deep graphs cannot overflow the interpreter stack.
"""


def scc_ids(n, adj, sub=None):
    """Strongly connected components, Tarjan's algorithm.

    adj: per-vertex sequences of out-neighbours.
    sub: iterable of active vertices, or None for all of them.

    Returns (count, ids) where ids[v] is the component id of v, or -1 for
    inactive vertices.  Ids are assigned in completion order (reverse
    topological order of the condensation).
    """
    if sub is None:
        active = None
        order = range(n)
    else:
        order = list(sub)
        active = bytearray(n)
        for v in order:
            active[v] = 1
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    comp = [-1] * n
    ncomp = 0
    counter = 0
    stack = []
    for root in order:
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        dfs_v = [root]
        dfs_i = [0]
        while dfs_v:
            v = dfs_v[-1]
            i = dfs_i[-1]
            neigh = adj[v]
            descended = False
            while i < len(neigh):
                w = neigh[i]
                i += 1
                if active is not None and not active[w]:
                    continue
                if index[w] == -1:
                    dfs_i[-1] = i
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    dfs_v.append(w)
                    dfs_i.append(0)
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            dfs_v.pop()
            dfs_i.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if dfs_v:
                p = dfs_v[-1]
                if low[v] < low[p]:
                    low[p] = low[v]
    return ncomp, comp


def bcc(n, adj, sub=None):
    """Biconnected components of an undirected graph, Hopcroft-Tarjan.

    adj: per-vertex sequences of neighbours (each undirected edge listed in
    both directions).  sub: active vertex subset or None.

    Returns (blocks, articulation_points, connected):
      blocks - sorted vertex lists, one per biconnected component; isolated
               active vertices yield singleton blocks, so blocks cover the
               active set;
      articulation_points - sorted list of cut vertices;
      connected - whether the active vertices form one connected component
                  (vacuously True for <= 1 active vertex).

    The search keeps a stack of vertices, not of edges: every vertex but
    a tree's root is pushed when discovered, and when a child v of p
    closes a block (low[v] >= disc[p]) the block is p plus the stack from
    v up.  low[v] takes the least discovery number among v's neighbours,
    its parent p included: that can lower low[v] only to disc[p], which
    still passes the test at p and cannot lower low[p].
    """
    if sub is None:
        active = None
        order = range(n)
    else:
        order = list(sub)
        active = bytearray(n)
        for v in order:
            active[v] = 1
    disc = [-1] * n
    low = [0] * n
    pos = [0] * n  # index of a vertex on the vertex stack
    is_ap = bytearray(n)
    counter = 0
    vstack = []
    blocks = []
    trees = 0
    for root in order:
        if disc[root] != -1:
            continue
        trees += 1
        root_children = 0
        disc[root] = low[root] = counter
        counter += 1
        dfs_v = [root]
        dfs_i = [0]
        while dfs_v:
            v = dfs_v[-1]
            i = dfs_i[-1]
            neigh = adj[v]
            end = len(neigh)
            while i < end:
                w = neigh[i]
                i += 1
                if active is not None and not active[w]:
                    continue
                d = disc[w]
                if d == -1:
                    if v == root:
                        root_children += 1
                    disc[w] = low[w] = counter
                    counter += 1
                    pos[w] = len(vstack)
                    vstack.append(w)
                    dfs_i[-1] = i
                    dfs_v.append(w)
                    dfs_i.append(0)
                    break
                if d < low[v]:
                    low[v] = d
            else:
                dfs_v.pop()
                dfs_i.pop()
                if dfs_v:
                    p = dfs_v[-1]
                    lv = low[v]
                    if lv < low[p]:
                        low[p] = lv
                    if lv >= disc[p]:
                        # Component boundary: v's part of the stack plus p.
                        k = pos[v]
                        members = vstack[k:]
                        del vstack[k:]
                        members.append(p)
                        members.sort()
                        blocks.append(members)
                        if p != root:
                            is_ap[p] = 1
        if root_children >= 2:
            is_ap[root] = 1
        if disc[root] == counter - 1:
            blocks.append([root])
    aps = [v for v in order if is_ap[v]]
    aps.sort()
    return blocks, aps, trees <= 1

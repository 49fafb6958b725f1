"""Pure-Python traversal kernels (fallback backend).

Both kernels take the vertices to walk, `sub`, and behave exactly as if
they were run on the subgraph induced on it, without materializing it; a
whole-graph call passes range(n).  DFS uses explicit stacks so deep
graphs cannot overflow the interpreter stack.  A vertex id outside
0..n-1, in a row read or in the subset, raises IndexError, as in the
compiled kernels: a negative id is checked explicitly, since list
indexing would read it from the end.
"""


def _active(n, sub):
    """The vertices of `sub` as a list, in order, and a bytearray marking
    them among 0..n-1."""
    order = list(sub)
    active = bytearray(n)
    for v in order:
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        active[v] = 1
    return order, active


def scc_ids(n, adj, sub):
    """Strongly connected components, Tarjan's algorithm.

    adj: per-vertex sequences of out-neighbours.
    sub: iterable of the active vertices; the DFS roots are tried in its
    order.

    Returns (count, ids) where ids[v] is the component id of v, or -1 for
    inactive vertices.  Ids are assigned in completion order (reverse
    topological order of the condensation).
    """
    order, active = _active(n, sub)
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
                if w < 0:
                    raise IndexError(f"vertex {w} out of range")
                if not active[w]:
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


def bcc(n, adj, sub):
    """Biconnected components of an undirected graph, Hopcroft-Tarjan.

    adj: per-vertex sequences of neighbours (each undirected edge listed in
    both directions).  sub: iterable of the active vertices, as for
    scc_ids.

    Returns the blocks: sorted vertex lists, one per biconnected
    component.  Isolated active vertices yield singleton blocks, so the
    blocks cover the active set, and a disconnected set has two or more;
    a cut vertex is one that lies in two or more blocks.

    The search keeps a stack of vertices, not of edges: every vertex but
    a tree's root is pushed when discovered, and when a child v of p
    closes a block (low[v] >= disc[p]) the block is p plus the stack from
    v up.  low[v] takes the least discovery number among v's neighbours,
    its parent p included: that can lower low[v] only to disc[p], which
    still passes the test at p and cannot lower low[p].
    """
    order, active = _active(n, sub)
    disc = [-1] * n
    low = [0] * n
    pos = [0] * n  # index of a vertex on the vertex stack
    counter = 0
    vstack = []
    blocks = []
    for root in order:
        if disc[root] != -1:
            continue
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
                if w < 0:
                    raise IndexError(f"vertex {w} out of range")
                if not active[w]:
                    continue
                d = disc[w]
                if d == -1:
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
        if disc[root] == counter - 1:
            blocks.append([root])
    return blocks

"""Pure-Python traversal kernels (fallback backend).

Three kernels: `scc_ids` and `bcc` take the vertices to walk, `sub`, and
behave exactly as if they were run on the subgraph induced on it,
without materializing it; a whole-graph call passes range(n).
`biconnected` takes the vertices to leave out, `gone`, as a mask, and
answers yes or no, stopping at the first cut vertex.  A vertex id
outside 0..n-1, in a row read, in the subset or in the mask, raises
IndexError, as in the compiled kernels: a negative id is checked
explicitly, since list indexing would read it from the end.

Each kernel marks a vertex outside its walk one way, with the discovery
number n: a vertex not in `sub`, one in `gone` and, in Tarjan's search,
one whose class has closed.  No search hands out n, so such a vertex is
neither unvisited (-1) nor able to lower a low point.

Every depth-first search here, and those of `resilience` and
`_triconnected`, runs on explicit stacks, so deep graphs cannot overflow
the interpreter stack, and keeps one idiom: the vertex being scanned
(`v`), the iterator over its row (`it`) and, where the search has one,
its low point (`lowv`) are local variables.  The stacks of the
ancestors' vertices and iterators are touched only on descent, which
pushes v and it, writes lowv to `low[v]` and starts on the child, and
on return, which pops the parent, reads its low point back and lowers
it by the child's.  Scanning an edge that neither descends nor returns
touches neither stack.
"""


def scc_ids(n, adj, sub):
    """Strongly connected components, Tarjan's algorithm.

    adj: per-vertex sequences of out-neighbours.
    sub: iterable of the vertices to walk; the DFS roots are tried in its
    order.

    Returns (count, classes): the classes of the subgraph induced on sub,
    each a sorted vertex list, ordered by least member.  A class is the
    slice of Tarjan's stack from its root up, taken off when the root
    closes.
    """
    order = list(sub)
    index = [n] * n
    for v in order:
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        index[v] = -1
    low = [0] * n
    pos = [0] * n  # index of a vertex on Tarjan's stack
    counter = 0
    stack = []
    classes = []
    dfs_v, dfs_it = [], []
    for root in order:
        if index[root] != -1:
            continue
        index[root] = lowv = counter
        counter += 1
        pos[root] = len(stack)
        stack.append(root)
        v, it = root, iter(adj[root])
        while True:
            for w in it:
                if w < 0:
                    raise IndexError(f"vertex {w} out of range")
                iw = index[w]
                if iw == -1:
                    low[v] = lowv
                    dfs_v.append(v)
                    dfs_it.append(it)
                    index[w] = lowv = counter
                    counter += 1
                    pos[w] = len(stack)
                    stack.append(w)
                    v, it = w, iter(adj[w])
                    break
                if iw < lowv:
                    lowv = iw
            else:
                if lowv == index[v]:
                    k = pos[v]
                    members = stack[k:]
                    del stack[k:]
                    for w in members:
                        index[w] = n
                    members.sort()
                    classes.append(members)
                if not dfs_v:
                    break
                v, it = dfs_v.pop(), dfs_it.pop()
                lp = low[v]
                if lp < lowv:
                    lowv = lp
    classes.sort()
    return len(classes), classes


def bcc(n, adj, sub):
    """Biconnected components of an undirected graph, Hopcroft-Tarjan.

    adj: per-vertex sequences of neighbours (each undirected edge listed in
    both directions).  sub: iterable of the vertices to walk, as for
    scc_ids.

    Returns the blocks: sorted vertex lists, one per biconnected
    component.  Isolated vertices of sub yield singleton blocks, so the
    blocks cover sub, and a disconnected set has two or more;
    a cut vertex is one that lies in two or more blocks.

    The search keeps a stack of vertices, not of edges: every vertex but
    a tree's root is pushed when discovered, and when a child v of p
    closes a block (low[v] >= disc[p]) the block is p plus the stack from
    v up.  low[v] takes the least discovery number among v's neighbours,
    its parent p included: that can lower low[v] only to disc[p], which
    still passes the test at p and cannot lower low[p].
    """
    order = list(sub)
    disc = [n] * n
    for v in order:
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        disc[v] = -1
    low = [0] * n
    pos = [0] * n  # index of a vertex on the vertex stack
    counter = 0
    vstack = []
    blocks = []
    dfs_v, dfs_it = [], []
    for root in order:
        if disc[root] != -1:
            continue
        disc[root] = lowv = counter
        counter += 1
        v, it = root, iter(adj[root])
        while True:
            for w in it:
                if w < 0:
                    raise IndexError(f"vertex {w} out of range")
                d = disc[w]
                if d == -1:
                    low[v] = lowv
                    dfs_v.append(v)
                    dfs_it.append(it)
                    disc[w] = lowv = counter
                    counter += 1
                    pos[w] = len(vstack)
                    vstack.append(w)
                    v, it = w, iter(adj[w])
                    break
                if d < lowv:
                    lowv = d
            else:
                if not dfs_v:
                    break
                p, it = dfs_v.pop(), dfs_it.pop()
                if lowv >= disc[p]:
                    # Component boundary: v's part of the stack plus p.
                    k = pos[v]
                    members = vstack[k:]
                    del vstack[k:]
                    members.append(p)
                    members.sort()
                    blocks.append(members)
                lp = low[p]
                if lp < lowv:
                    lowv = lp
                v = p
        if disc[root] == counter - 1:
            blocks.append([root])
    return blocks


def biconnected(n, adj, gone):
    """Whether the undirected graph on the vertices not in `gone` is
    connected with no cut vertex; K1, K2 and the empty graph qualify, as
    in `connectivity.is_biconnected`.  The same as len(bcc(n, adj, V -
    gone)) <= 1, without listing V - gone or any block.

    adj: per-vertex sequences of neighbours, as for bcc.  gone: iterable
    of the vertices left out, read as a mask: each gets the discovery
    number n, the mark of a vertex outside the walk.

    One Hopcroft-Tarjan search from the least vertex left: a block closes
    at p when a child v of p has low[v] >= disc[p].  The first block to
    close at any vertex but the root, or the second at the root, shows a
    cut vertex, and the search stops there with False.  A search that
    ends without one is True when it reached every vertex left.
    """
    disc = [-1] * n
    left = n
    for v in gone:
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        if disc[v] == -1:
            disc[v] = n
            left -= 1
    if left <= 1:
        return True
    root = disc.index(-1)
    low = [0] * n
    disc[root] = lowv = 0
    counter = 1
    root_blocks = 0
    dfs_v, dfs_it = [], []
    v, it = root, iter(adj[root])
    while True:
        for w in it:
            if w < 0:
                raise IndexError(f"vertex {w} out of range")
            d = disc[w]
            if d == -1:
                low[v] = lowv
                dfs_v.append(v)
                dfs_it.append(it)
                disc[w] = lowv = counter
                counter += 1
                v, it = w, iter(adj[w])
                break
            if d < lowv:
                lowv = d
        else:
            if not dfs_v:
                return counter == left
            v, it = dfs_v.pop(), dfs_it.pop()
            if lowv >= disc[v]:
                if v != root or root_blocks:
                    return False
                root_blocks = 1
            lp = low[v]
            if lp < lowv:
                lowv = lp

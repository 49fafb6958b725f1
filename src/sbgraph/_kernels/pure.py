"""Pure-Python traversal kernels (fallback backend).

Three kernels: `scc_ids` and `bcc` take the vertices to walk, `sub`, and
behave exactly as if they were run on the subgraph induced on it,
without materializing it; a whole-graph call passes range(n).
`biconnected` takes the vertices to leave out, `gone`, as a mask, and
answers yes or no.  `bcc` and `biconnected` run one Hopcroft-Tarjan
search, `_block_search`: `bcc` lists every block it closes, and
`biconnected` stops at the first.  Classes and blocks are sorted
tuples, which the cyclic garbage collector does not track.  A vertex id
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
    each a sorted vertex tuple, ordered by least member.  A class is the
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
                    classes.append(tuple(members))
                if not dfs_v:
                    break
                v, it = dfs_v.pop(), dfs_it.pop()
                lp = low[v]
                if lp < lowv:
                    lowv = lp
    classes.sort()
    return len(classes), classes


def _block_search(n, adj, order, disc, blocks):
    """Hopcroft-Tarjan block search, shared by `bcc` and `biconnected`.

    order: the DFS roots to try; disc: the discovery numbers, -1 for a
    vertex to walk and n for any other.  With a list `blocks`, append
    each block to it as a sorted tuple and return 0.  With None, stop at
    the first block closed and return its size.

    The search keeps a stack of vertices, not of edges: every vertex but
    a tree's root is pushed when discovered, and when a child v of p
    closes a block (low[v] >= disc[p]) the block is p plus the stack from
    v up.  low[v] takes the least discovery number among v's neighbours,
    its parent p included: that can lower low[v] only to disc[p], which
    still passes the test at p and cannot lower low[p].  A tree of one
    vertex closes the block of that vertex alone.
    """
    low = [0] * n
    pos = [0] * n  # index of a vertex on the vertex stack
    counter = 0
    vstack = []
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
                    if blocks is None:
                        return len(vstack) - k + 1
                    members = vstack[k:]
                    del vstack[k:]
                    members.append(p)
                    members.sort()
                    blocks.append(tuple(members))
                lp = low[p]
                if lp < lowv:
                    lowv = lp
                v = p
        if disc[root] == counter - 1:
            if blocks is None:
                return 1
            blocks.append((root,))
    return 0


def bcc(n, adj, sub):
    """Biconnected components of an undirected graph, Hopcroft-Tarjan
    (`_block_search`).

    adj: per-vertex sequences of neighbours (each undirected edge listed in
    both directions).  sub: iterable of the vertices to walk, as for
    scc_ids.

    Returns the blocks: sorted vertex tuples, one per biconnected
    component.  Isolated vertices of sub yield singleton blocks, so the
    blocks cover sub, and a disconnected set has two or more;
    a cut vertex is one that lies in two or more blocks.
    """
    order = list(sub)
    disc = [n] * n
    for v in order:
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        disc[v] = -1
    blocks = []
    _block_search(n, adj, order, disc, blocks)
    return blocks


def biconnected(n, adj, gone):
    """Whether the undirected graph on the vertices not in `gone` is
    connected with no cut vertex; K1, K2 and the empty graph qualify, as
    in `connectivity.is_biconnected`.  The same as len(bcc(n, adj, V -
    gone)) <= 1, without listing V - gone or any block.

    adj: per-vertex sequences of neighbours, as for bcc.  gone: iterable
    of the vertices left out, read as a mask: each gets the discovery
    number n, the mark of a vertex outside the walk.

    The search of `bcc`, from the least vertex left, stopped at the
    first block it closes.  That block lies in the first root's
    component, so the graph left is biconnected exactly when the block
    is its only one, that is, when it holds every vertex left.
    """
    disc = [-1] * n
    left = n
    for v in gone:
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        if disc[v] == -1:
            disc[v] = n
            left -= 1
    return left <= 1 or _block_search(n, adj, range(n), disc, None) == left

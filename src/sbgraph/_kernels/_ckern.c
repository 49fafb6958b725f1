/* Compiled traversal kernels: Tarjan SCC (scc_ids), Hopcroft-Tarjan BCC
 * (bcc) and the early-exit biconnectivity test (biconnected).
 *
 * A direct port of the pure backend (pure.py): the same contracts and the
 * same traversal order, so both backends return identical results; only
 * the inner loops run on C arrays.  scc_ids returns (count, classes), each
 * class a sorted vertex tuple and the classes ordered by least member; bcc
 * returns its sorted blocks; one emitter, append_sorted, builds both.
 * bcc and biconnected share one Hopcroft-Tarjan search, block_search:
 * biconnected stops it at the first block it closes and compares that
 * block's size with the number of vertices left.
 * Each call holds one walk state, Walk, which walk_init allocates whole,
 * so neither search allocates.  Both searches number and stack a vertex
 * with one push and scan rows with one advance; they differ only in what
 * they do when a vertex's row is done.
 * Every kernel gives a vertex outside its walk the discovery number n,
 * which no search hands out, so no arc scan tests any other flag.  Every
 * value read from Python is checked before it indexes an array: a row
 * list shorter than n, a vertex id outside [0, n) or an entry that is not
 * an int raises ValueError, IndexError or TypeError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>
#include <string.h>

/* The state of one kernel call's depth-first search.
 *
 * The rows of the walked vertices are flattened: the neighbours of a
 * walked vertex v are indices[indptr[v] .. indptr[v + 1]); other rows are
 * empty.  disc holds the discovery numbers, -1 for a walked vertex not yet
 * reached and n for any vertex outside the walk.  order is sub, the roots
 * in the caller's order, or, when the caller passes a mask of the vertices
 * left out, every walked vertex in ascending order.
 *
 * low holds the low points, stack the vertex stack (sp entries, one spare
 * slot for the block search's parent) and pos each vertex's place on it.
 * The frames of the search are dfs_v, the vertex, and dfs_i, the next
 * place in its row; fp frames are open.  counter is the next discovery
 * number. */
typedef struct {
    int n, counter, sp, fp;
    Py_ssize_t *indptr, *dfs_i, order_len;
    int *indices, *disc, *low, *pos, *stack, *dfs_v, *order;
} Walk;

static void
walk_free(Walk *g)
{
    PyMem_Free(g->indptr);
    PyMem_Free(g->dfs_i);
    PyMem_Free(g->indices);
    PyMem_Free(g->disc);
    PyMem_Free(g->low);
    PyMem_Free(g->pos);
    PyMem_Free(g->stack);
    PyMem_Free(g->dfs_v);
    PyMem_Free(g->order);
}

/* Store obj in *out if it is an int in [0, limit); otherwise raise
 * TypeError, or `exc` for a value out of range. */
static int
read_int(PyObject *obj, long limit, const char *what, PyObject *exc, int *out)
{
    int overflow;
    long value;
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.200s",
                     what, Py_TYPE(obj)->tp_name);
        return -1;
    }
    value = PyLong_AsLongAndOverflow(obj, &overflow);
    if (overflow || value < 0 || value >= limit) {
        PyErr_Format(exc, "%s %R out of range [0, %ld)", what, obj, limit);
        return -1;
    }
    *out = (int)value;
    return 0;
}

/* Read n, adj and sub into g and allocate the rest of its state; with
 * is_mask set, sub lists the vertices left out instead.  On failure g is
 * already freed. */
static int
walk_init(Walk *g, PyObject *n_obj, PyObject *adj, PyObject *sub,
          int is_mask)
{
    PyObject *rows = NULL, *seq = NULL, *row = NULL;
    Py_ssize_t m = 0, cap = 0, i;
    size_t size;
    int n, v;

    memset(g, 0, sizeof *g);
    if (read_int(n_obj, INT_MAX, "n", PyExc_ValueError, &n) < 0)
        return -1;
    g->n = n;
    /* A tuple of the rows: a row that is neither list nor tuple runs
     * Python code when it is read, which could change a list of rows. */
    rows = PySequence_Tuple(adj);
    if (rows == NULL)
        return -1;
    if (PyTuple_GET_SIZE(rows) < n) {
        PyErr_Format(PyExc_ValueError, "adj has %zd rows, fewer than n=%d",
                     PyTuple_GET_SIZE(rows), n);
        goto fail;
    }
    size = (size_t)n + 1;
    g->indptr = PyMem_Malloc(size * sizeof(Py_ssize_t));
    g->dfs_i = PyMem_Malloc(size * sizeof(Py_ssize_t));
    g->disc = PyMem_Malloc(size * sizeof(int));
    g->low = PyMem_Malloc(size * sizeof(int));
    g->pos = PyMem_Malloc(size * sizeof(int));
    g->stack = PyMem_Malloc(size * sizeof(int));
    g->dfs_v = PyMem_Malloc(size * sizeof(int));
    if (!g->indptr || !g->dfs_i || !g->disc || !g->low || !g->pos
        || !g->stack || !g->dfs_v)
        goto nomem;
    for (v = 0; v < n; v++)
        g->disc[v] = is_mask ? -1 : n;
    seq = PySequence_Fast(sub, is_mask ? "gone must be an iterable of vertices"
                                       : "sub must be an iterable of vertices");
    if (seq == NULL)
        goto fail;
    if (is_mask) {
        for (i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
            if (read_int(PySequence_Fast_GET_ITEM(seq, i), n, "gone vertex",
                         PyExc_IndexError, &v) < 0)
                goto fail;
            g->disc[v] = n;
        }
        g->order = PyMem_Malloc(size * sizeof(int));
        if (g->order == NULL)
            goto nomem;
        for (v = 0; v < n; v++)
            if (g->disc[v] == -1)
                g->order[g->order_len++] = v;
    } else {
        g->order_len = PySequence_Fast_GET_SIZE(seq);
        g->order = PyMem_Malloc(((size_t)g->order_len + 1) * sizeof(int));
        if (g->order == NULL)
            goto nomem;
        for (i = 0; i < g->order_len; i++) {
            if (read_int(PySequence_Fast_GET_ITEM(seq, i), n, "sub vertex",
                         PyExc_IndexError, &g->order[i]) < 0)
                goto fail;
            g->disc[g->order[i]] = -1;
        }
    }
    Py_CLEAR(seq);
    g->indptr[0] = 0;
    for (v = 0; v < n; v++) {
        if (g->disc[v] == -1) {
            Py_ssize_t len, j;
            PyObject **items;
            row = PySequence_Fast(PyTuple_GET_ITEM(rows, v),
                                  "adjacency rows must be sequences");
            if (row == NULL)
                goto fail;
            len = PySequence_Fast_GET_SIZE(row);
            items = PySequence_Fast_ITEMS(row);
            if (m + len > cap) {
                int *grown;
                cap = m + len > 2 * cap ? m + len : 2 * cap;
                grown = PyMem_Realloc(g->indices, (size_t)cap * sizeof(int));
                if (grown == NULL)
                    goto nomem;
                g->indices = grown;
            }
            for (j = 0; j < len; j++)
                if (read_int(items[j], n, "neighbour", PyExc_IndexError,
                             &g->indices[m + j]) < 0)
                    goto fail;
            m += len;
            Py_CLEAR(row);
        }
        g->indptr[v + 1] = m;
    }
    Py_DECREF(rows);
    return 0;
nomem:
    PyErr_NoMemory();
fail:
    Py_XDECREF(row);
    Py_XDECREF(seq);
    Py_DECREF(rows);
    walk_free(g);
    return -1;
}

static int
compare_ints(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

/* Sort members[0 .. size) in place and append them to list as a tuple of
 * ints. */
static int
append_sorted(PyObject *list, int *members, Py_ssize_t size)
{
    PyObject *block = PyTuple_New(size);
    Py_ssize_t i;
    int status;
    if (block == NULL)
        return -1;
    qsort(members, (size_t)size, sizeof(int), compare_ints);
    for (i = 0; i < size; i++) {
        PyObject *item = PyLong_FromLong(members[i]);
        if (item == NULL) {
            Py_DECREF(block);
            return -1;
        }
        PyTuple_SET_ITEM(block, i, item);
    }
    status = PyList_Append(list, block);
    Py_DECREF(block);
    return status;
}

/* Number w, put it on the vertex stack and open its frame. */
static void
push(Walk *g, int w)
{
    g->disc[w] = g->low[w] = g->counter++;
    g->pos[w] = g->sp;
    g->stack[g->sp++] = w;
    g->dfs_v[g->fp] = w;
    g->dfs_i[g->fp++] = g->indptr[w];
}

/* Go on along the row of the top frame's vertex v, lowering low[v] at
 * each numbered neighbour, and push the first unnumbered one; return -1
 * then.  At the end of the row, close v's frame, lower its parent's low
 * point by low[v] and return v. */
static int
advance(Walk *g)
{
    int v = g->dfs_v[g->fp - 1];
    Py_ssize_t i = g->dfs_i[g->fp - 1], end = g->indptr[v + 1];
    while (i < end) {
        int w = g->indices[i++], d = g->disc[w];
        if (d == -1) {
            g->dfs_i[g->fp - 1] = i;
            push(g, w);
            return -1;
        }
        if (d < g->low[v])
            g->low[v] = d;
    }
    if (--g->fp) {
        int p = g->dfs_v[g->fp - 1];
        if (g->low[v] < g->low[p])
            g->low[p] = g->low[v];
    }
    return v;
}

static char *kwlist[] = {"n", "adj", "sub", NULL};

PyDoc_STRVAR(scc_ids_doc,
"scc_ids(n, adj, sub)\n--\n\n"
"Strongly connected components, Tarjan's algorithm; see the pure backend.");

static PyObject *
scc_ids(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *n_obj, *adj, *sub, *classes, *result = NULL;
    Py_ssize_t ri;
    Walk g;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:scc_ids", kwlist,
                                     &n_obj, &adj, &sub))
        return NULL;
    if (walk_init(&g, n_obj, adj, sub, 0) < 0)
        return NULL;
    classes = PyList_New(0);
    if (classes == NULL)
        goto done;
    for (ri = 0; ri < g.order_len; ri++) {
        if (g.disc[g.order[ri]] != -1)
            continue;
        push(&g, g.order[ri]);
        while (g.fp) {
            int v = advance(&g), k, top = g.sp;
            if (v < 0 || g.low[v] != g.disc[v])
                continue;
            /* v's class is the stack from v up: mark it closed and emit
             * it, sorted where it lies. */
            g.sp = g.pos[v];
            for (k = g.sp; k < top; k++)
                g.disc[g.stack[k]] = g.n;
            if (append_sorted(classes, g.stack + g.sp, top - g.sp) < 0)
                goto done;
        }
    }
    if (PyList_Sort(classes) == 0)
        result = Py_BuildValue("(nO)", PyList_GET_SIZE(classes), classes);
done:
    Py_XDECREF(classes);
    walk_free(&g);
    return result;
}

/* The Hopcroft-Tarjan block search over g from the roots in g->order,
 * shared by bcc and biconnected; see the pure backend's _block_search.
 * Each root stays on the stack below its tree, which no block pops, and
 * leaves it when the tree is done.  With a list blocks, append each
 * sorted block to it and return 0; with NULL, stop at the first block
 * closed and return its size.  -1 on error. */
static Py_ssize_t
block_search(Walk *g, PyObject *blocks)
{
    Py_ssize_t ri;
    for (ri = 0; ri < g->order_len; ri++) {
        int root = g->order[ri];
        if (g->disc[root] != -1)
            continue;
        push(g, root);
        while (g->fp) {
            int v = advance(g), p, k;
            if (v < 0 || !g->fp)
                continue;
            p = g->dfs_v[g->fp - 1];
            if (g->low[v] < g->disc[p])
                continue;
            /* Component boundary: v's part of the stack plus p, written
             * above the top (the spare slot keeps it in bounds) and
             * sorted where it lies. */
            k = g->pos[v];
            if (blocks == NULL)
                return g->sp + 1 - k;
            g->stack[g->sp] = p;
            if (append_sorted(blocks, g->stack + k, g->sp + 1 - k) < 0)
                return -1;
            g->sp = k;
        }
        g->sp--;
        if (g->disc[root] == g->counter - 1) {
            if (blocks == NULL)
                return 1;
            if (append_sorted(blocks, &root, 1) < 0)
                return -1;
        }
    }
    return 0;
}

PyDoc_STRVAR(bcc_doc,
"bcc(n, adj, sub)\n--\n\n"
"Biconnected components, Hopcroft-Tarjan with a vertex stack; see the\n"
"pure backend.");

static PyObject *
bcc(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *n_obj, *adj, *sub, *blocks;
    Walk g;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:bcc", kwlist,
                                     &n_obj, &adj, &sub))
        return NULL;
    if (walk_init(&g, n_obj, adj, sub, 0) < 0)
        return NULL;
    blocks = PyList_New(0);
    if (blocks != NULL && block_search(&g, blocks) < 0)
        Py_CLEAR(blocks);
    walk_free(&g);
    return blocks;
}

static char *mask_kwlist[] = {"n", "adj", "gone", NULL};

PyDoc_STRVAR(biconnected_doc,
"biconnected(n, adj, gone)\n--\n\n"
"Whether the vertices not in gone induce a connected graph with no cut\n"
"vertex: the bcc search stopped at the first block it closes; see the\n"
"pure backend.");

static PyObject *
biconnected(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *n_obj, *adj, *gone;
    Py_ssize_t left, size = 0;
    Walk g;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:biconnected",
                                     mask_kwlist, &n_obj, &adj, &gone))
        return NULL;
    if (walk_init(&g, n_obj, adj, gone, 1) < 0)
        return NULL;
    left = g.order_len;
    if (left > 1)
        size = block_search(&g, NULL);
    walk_free(&g);
    if (size < 0)
        return NULL;
    return PyBool_FromLong(left <= 1 || size == left);
}

static PyMethodDef methods[] = {
    {"scc_ids", (PyCFunction)(void (*)(void))scc_ids,
     METH_VARARGS | METH_KEYWORDS, scc_ids_doc},
    {"bcc", (PyCFunction)(void (*)(void))bcc,
     METH_VARARGS | METH_KEYWORDS, bcc_doc},
    {"biconnected", (PyCFunction)(void (*)(void))biconnected,
     METH_VARARGS | METH_KEYWORDS, biconnected_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckern",
    .m_doc = "Compiled traversal kernels; same contracts as "
             "sbgraph._kernels.pure.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ckern(void)
{
    return PyModule_Create(&module);
}

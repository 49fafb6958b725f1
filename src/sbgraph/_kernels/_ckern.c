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

/* The rows of the walked vertices, flattened: the neighbours of a walked
 * vertex v are indices[indptr[v] .. indptr[v + 1]); other rows are empty.
 * disc is the kernel's discovery-number array, -1 for a walked vertex and
 * n for any other.  order is sub, the roots in the caller's order, or,
 * when the caller passes a mask of the vertices left out, every walked
 * vertex in ascending order. */
typedef struct {
    int n;
    Py_ssize_t *indptr;
    int *indices;
    int *disc;
    int *order;
    Py_ssize_t order_len;
} Graph;

static void
graph_free(Graph *g)
{
    PyMem_Free(g->indptr);
    PyMem_Free(g->indices);
    PyMem_Free(g->disc);
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

/* Read n, adj and sub into g; with is_mask set, sub lists the vertices
 * left out instead.  On failure g is already freed. */
static int
graph_init(Graph *g, PyObject *n_obj, PyObject *adj, PyObject *sub,
           int is_mask)
{
    PyObject *rows = NULL, *seq = NULL, *row = NULL;
    Py_ssize_t m = 0, cap = 0, i;
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
    g->disc = PyMem_Malloc(((size_t)n + 1) * sizeof(int));
    g->indptr = PyMem_Malloc(((size_t)n + 1) * sizeof(Py_ssize_t));
    if (g->disc == NULL || g->indptr == NULL)
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
        g->order = PyMem_Malloc(((size_t)n + 1) * sizeof(int));
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
    graph_free(g);
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

static char *kwlist[] = {"n", "adj", "sub", NULL};

PyDoc_STRVAR(scc_ids_doc,
"scc_ids(n, adj, sub)\n--\n\n"
"Strongly connected components, Tarjan's algorithm; see the pure backend.");

static PyObject *
scc_ids(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *n_obj, *adj, *sub, *classes = NULL, *result = NULL;
    int *work = NULL, *index, *low, *stack, *dfs_v;
    Py_ssize_t *dfs_i = NULL, ri;
    int n, v, counter = 0, sp = 0;
    Graph g;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:scc_ids", kwlist,
                                     &n_obj, &adj, &sub))
        return NULL;
    if (graph_init(&g, n_obj, adj, sub, 0) < 0)
        return NULL;
    n = g.n;
    index = g.disc;
    work = PyMem_Malloc(3 * ((size_t)n + 1) * sizeof(int));
    dfs_i = PyMem_Malloc(((size_t)n + 1) * sizeof(Py_ssize_t));
    classes = PyList_New(0);
    if (work == NULL || dfs_i == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (classes == NULL)
        goto done;
    low = work;
    stack = low + n;
    dfs_v = stack + n;

    for (ri = 0; ri < g.order_len; ri++) {
        int root = g.order[ri], fp = 1;
        if (index[root] != -1)
            continue;
        index[root] = low[root] = counter++;
        stack[sp++] = root;
        dfs_v[0] = root;
        dfs_i[0] = g.indptr[root];
        while (fp) {
            Py_ssize_t i = dfs_i[fp - 1], end;
            int descended = 0;
            v = dfs_v[fp - 1];
            end = g.indptr[v + 1];
            while (i < end) {
                int w = g.indices[i++];
                if (index[w] == -1) {
                    dfs_i[fp - 1] = i;
                    index[w] = low[w] = counter++;
                    stack[sp++] = w;
                    dfs_v[fp] = w;
                    dfs_i[fp] = g.indptr[w];
                    fp++;
                    descended = 1;
                    break;
                }
                if (index[w] < low[v])
                    low[v] = index[w];
            }
            if (descended)
                continue;
            fp--;
            if (low[v] == index[v]) {
                /* v's class is the stack from v up: mark it closed and
                 * emit it, sorted where it lies. */
                int top = sp, w;
                do {
                    w = stack[--sp];
                    index[w] = n;
                } while (w != v);
                if (append_sorted(classes, stack + sp, top - sp) < 0)
                    goto done;
            }
            if (fp) {
                int p = dfs_v[fp - 1];
                if (low[v] < low[p])
                    low[p] = low[v];
            }
        }
    }
    if (PyList_Sort(classes) == 0)
        result = Py_BuildValue("(nO)", PyList_GET_SIZE(classes), classes);
done:
    Py_XDECREF(classes);
    PyMem_Free(work);
    PyMem_Free(dfs_i);
    graph_free(&g);
    return result;
}

/* The Hopcroft-Tarjan block search over g from the roots in g->order,
 * shared by bcc and biconnected; see the pure backend's _block_search.
 * With a list blocks, append each sorted block to it and return 0; with
 * NULL, stop at the first block closed and return its size.  -1 on
 * error. */
static Py_ssize_t
block_search(Graph *g, PyObject *blocks)
{
    int *work, *disc = g->disc, *low, *pos, *vstack, *dfs_v;
    Py_ssize_t *dfs_i, ri, result = -1;
    int n = g->n, v, counter = 0, sp = 0;

    work = PyMem_Malloc(4 * ((size_t)n + 1) * sizeof(int));
    dfs_i = PyMem_Malloc(((size_t)n + 1) * sizeof(Py_ssize_t));
    if (work == NULL || dfs_i == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    low = work;
    pos = low + n;
    vstack = pos + n;
    dfs_v = vstack + n;

    for (ri = 0; ri < g->order_len; ri++) {
        int root = g->order[ri], fp = 1;
        if (disc[root] != -1)
            continue;
        disc[root] = low[root] = counter++;
        dfs_v[0] = root;
        dfs_i[0] = g->indptr[root];
        while (fp) {
            Py_ssize_t i = dfs_i[fp - 1], end;
            int descended = 0;
            v = dfs_v[fp - 1];
            end = g->indptr[v + 1];
            while (i < end) {
                int w = g->indices[i++], d = disc[w];
                if (d == -1) {
                    disc[w] = low[w] = counter++;
                    pos[w] = sp;
                    vstack[sp++] = w;
                    dfs_i[fp - 1] = i;
                    dfs_v[fp] = w;
                    dfs_i[fp] = g->indptr[w];
                    fp++;
                    descended = 1;
                    break;
                }
                if (d < low[v])
                    low[v] = d;
            }
            if (descended)
                continue;
            fp--;
            if (fp) {
                int p = dfs_v[fp - 1], lv = low[v];
                if (lv < low[p])
                    low[p] = lv;
                if (lv >= disc[p]) {
                    /* Component boundary: v's part of the stack plus p,
                     * sorted where it lies; vstack[sp] is in bounds, as the
                     * stack never holds the root. */
                    int k = pos[v];
                    if (blocks == NULL) {
                        result = sp + 1 - k;
                        goto done;
                    }
                    vstack[sp] = p;
                    if (append_sorted(blocks, vstack + k, sp + 1 - k) < 0)
                        goto done;
                    sp = k;
                }
            }
        }
        if (disc[root] == counter - 1) {
            if (blocks == NULL) {
                result = 1;
                goto done;
            }
            if (append_sorted(blocks, &root, 1) < 0)
                goto done;
        }
    }
    result = 0;
done:
    PyMem_Free(work);
    PyMem_Free(dfs_i);
    return result;
}

PyDoc_STRVAR(bcc_doc,
"bcc(n, adj, sub)\n--\n\n"
"Biconnected components, Hopcroft-Tarjan with a vertex stack; see the\n"
"pure backend.");

static PyObject *
bcc(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *n_obj, *adj, *sub, *blocks;
    Graph g;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:bcc", kwlist,
                                     &n_obj, &adj, &sub))
        return NULL;
    if (graph_init(&g, n_obj, adj, sub, 0) < 0)
        return NULL;
    blocks = PyList_New(0);
    if (blocks != NULL && block_search(&g, blocks) < 0)
        Py_CLEAR(blocks);
    graph_free(&g);
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
    Graph g;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:biconnected",
                                     mask_kwlist, &n_obj, &adj, &gone))
        return NULL;
    if (graph_init(&g, n_obj, adj, gone, 1) < 0)
        return NULL;
    left = g.order_len;
    if (left > 1)
        size = block_search(&g, NULL);
    graph_free(&g);
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

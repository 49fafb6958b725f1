/* Compiled traversal kernels: Tarjan SCC and Hopcroft-Tarjan BCC.
 *
 * A direct port of the pure backend (pure.py): the same contracts and the
 * same traversal order, so both backends return identical results; only
 * the inner loops run on C arrays.  Every value read from Python is checked
 * before it indexes an array: a row list shorter than n, a vertex id
 * outside [0, n) or an entry that is not an int raises ValueError,
 * IndexError or TypeError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>
#include <string.h>

/* The rows of the active vertices, flattened: the neighbours of an active
 * vertex v are indices[indptr[v] .. indptr[v + 1]); inactive rows are
 * empty.  order is sub: the roots, in the caller's order. */
typedef struct {
    int n;
    Py_ssize_t *indptr;
    int *indices;
    unsigned char *active;
    int *order;
    Py_ssize_t order_len;
} Graph;

static void
graph_free(Graph *g)
{
    PyMem_Free(g->indptr);
    PyMem_Free(g->indices);
    PyMem_Free(g->active);
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

/* Read n, adj and sub into g.  On failure g is already freed. */
static int
graph_init(Graph *g, PyObject *n_obj, PyObject *adj, PyObject *sub)
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
    g->active = PyMem_Calloc((size_t)n + 1, 1);
    g->indptr = PyMem_Malloc(((size_t)n + 1) * sizeof(Py_ssize_t));
    if (g->active == NULL || g->indptr == NULL)
        goto nomem;
    seq = PySequence_Fast(sub, "sub must be an iterable of vertices");
    if (seq == NULL)
        goto fail;
    g->order_len = PySequence_Fast_GET_SIZE(seq);
    g->order = PyMem_Malloc(((size_t)g->order_len + 1) * sizeof(int));
    if (g->order == NULL)
        goto nomem;
    for (i = 0; i < g->order_len; i++) {
        if (read_int(PySequence_Fast_GET_ITEM(seq, i), n, "sub vertex",
                     PyExc_IndexError, &g->order[i]) < 0)
            goto fail;
        g->active[g->order[i]] = 1;
    }
    Py_CLEAR(seq);
    g->indptr[0] = 0;
    for (v = 0; v < n; v++) {
        if (g->active[v]) {
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

static PyObject *
int_list(const int *values, Py_ssize_t count)
{
    PyObject *list = PyList_New(count);
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < count; i++) {
        PyObject *item = PyLong_FromLong(values[i]);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

static int
compare_ints(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

static char *kwlist[] = {"n", "adj", "sub", NULL};

PyDoc_STRVAR(scc_ids_doc,
"scc_ids(n, adj, sub)\n--\n\n"
"Strongly connected components, Tarjan's algorithm; see the pure backend.");

static PyObject *
scc_ids(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *n_obj, *adj, *sub, *comps, *result = NULL;
    int *work = NULL, *index, *low, *comp, *stack, *dfs_v;
    Py_ssize_t *dfs_i = NULL, ri;
    unsigned char *on_stack = NULL;
    int n, v, ncomp = 0, counter = 0, sp = 0;
    Graph g;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:scc_ids", kwlist,
                                     &n_obj, &adj, &sub))
        return NULL;
    if (graph_init(&g, n_obj, adj, sub) < 0)
        return NULL;
    n = g.n;
    work = PyMem_Malloc(5 * ((size_t)n + 1) * sizeof(int));
    dfs_i = PyMem_Malloc(((size_t)n + 1) * sizeof(Py_ssize_t));
    on_stack = PyMem_Calloc((size_t)n + 1, 1);
    if (work == NULL || dfs_i == NULL || on_stack == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    index = work;
    low = index + n;
    comp = low + n;
    stack = comp + n;
    dfs_v = stack + n;
    for (v = 0; v < n; v++)
        index[v] = comp[v] = -1;

    for (ri = 0; ri < g.order_len; ri++) {
        int root = g.order[ri], fp = 1;
        if (index[root] != -1)
            continue;
        index[root] = low[root] = counter++;
        stack[sp++] = root;
        on_stack[root] = 1;
        dfs_v[0] = root;
        dfs_i[0] = g.indptr[root];
        while (fp) {
            Py_ssize_t i = dfs_i[fp - 1], end;
            int descended = 0;
            v = dfs_v[fp - 1];
            end = g.indptr[v + 1];
            while (i < end) {
                int w = g.indices[i++];
                if (!g.active[w])
                    continue;
                if (index[w] == -1) {
                    dfs_i[fp - 1] = i;
                    index[w] = low[w] = counter++;
                    stack[sp++] = w;
                    on_stack[w] = 1;
                    dfs_v[fp] = w;
                    dfs_i[fp] = g.indptr[w];
                    fp++;
                    descended = 1;
                    break;
                }
                if (on_stack[w] && index[w] < low[v])
                    low[v] = index[w];
            }
            if (descended)
                continue;
            fp--;
            if (low[v] == index[v]) {
                int w;
                do {
                    w = stack[--sp];
                    on_stack[w] = 0;
                    comp[w] = ncomp;
                } while (w != v);
                ncomp++;
            }
            if (fp) {
                int p = dfs_v[fp - 1];
                if (low[v] < low[p])
                    low[p] = low[v];
            }
        }
    }
    comps = int_list(comp, n);
    if (comps != NULL)
        result = Py_BuildValue("(iN)", ncomp, comps);
done:
    PyMem_Free(work);
    PyMem_Free(dfs_i);
    PyMem_Free(on_stack);
    graph_free(&g);
    return result;
}

PyDoc_STRVAR(bcc_doc,
"bcc(n, adj, sub)\n--\n\n"
"Biconnected components, Hopcroft-Tarjan with a vertex stack; see the\n"
"pure backend.");

static PyObject *
bcc(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *n_obj, *adj, *sub, *blocks = NULL, *result = NULL;
    int *work = NULL, *disc, *low, *pos, *vstack, *dfs_v, *members;
    Py_ssize_t *dfs_i = NULL, ri;
    int n, v, counter = 0, sp = 0;
    Graph g;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:bcc", kwlist,
                                     &n_obj, &adj, &sub))
        return NULL;
    if (graph_init(&g, n_obj, adj, sub) < 0)
        return NULL;
    n = g.n;
    /* members holds one block while it is sorted: at most n distinct
     * vertices, the parent included, however long sub is. */
    work = PyMem_Malloc(6 * ((size_t)n + 1) * sizeof(int));
    dfs_i = PyMem_Malloc(((size_t)n + 1) * sizeof(Py_ssize_t));
    blocks = PyList_New(0);
    if (work == NULL || dfs_i == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (blocks == NULL)
        goto done;
    disc = work;
    low = disc + n;
    pos = low + n;
    vstack = pos + n;
    dfs_v = vstack + n;
    members = dfs_v + n;
    for (v = 0; v < n; v++)
        disc[v] = -1;

    for (ri = 0; ri < g.order_len; ri++) {
        int root = g.order[ri], fp = 1;
        if (disc[root] != -1)
            continue;
        disc[root] = low[root] = counter++;
        dfs_v[0] = root;
        dfs_i[0] = g.indptr[root];
        while (fp) {
            Py_ssize_t i = dfs_i[fp - 1], end;
            int descended = 0;
            v = dfs_v[fp - 1];
            end = g.indptr[v + 1];
            while (i < end) {
                int w = g.indices[i++], d;
                if (!g.active[w])
                    continue;
                d = disc[w];
                if (d == -1) {
                    disc[w] = low[w] = counter++;
                    pos[w] = sp;
                    vstack[sp++] = w;
                    dfs_i[fp - 1] = i;
                    dfs_v[fp] = w;
                    dfs_i[fp] = g.indptr[w];
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
                    /* Component boundary: v's part of the stack plus p. */
                    int size = sp - pos[v];
                    PyObject *block;
                    memcpy(members, vstack + pos[v], size * sizeof(int));
                    members[size++] = p;
                    sp = pos[v];
                    qsort(members, size, sizeof(int), compare_ints);
                    block = int_list(members, size);
                    if (block == NULL || PyList_Append(blocks, block) < 0) {
                        Py_XDECREF(block);
                        goto done;
                    }
                    Py_DECREF(block);
                }
            }
        }
        if (disc[root] == counter - 1) {
            PyObject *block = int_list(&root, 1);
            if (block == NULL || PyList_Append(blocks, block) < 0) {
                Py_XDECREF(block);
                goto done;
            }
            Py_DECREF(block);
        }
    }
    result = blocks;
    blocks = NULL;
done:
    Py_XDECREF(blocks);
    PyMem_Free(work);
    PyMem_Free(dfs_i);
    graph_free(&g);
    return result;
}

static PyMethodDef methods[] = {
    {"scc_ids", (PyCFunction)(void (*)(void))scc_ids,
     METH_VARARGS | METH_KEYWORDS, scc_ids_doc},
    {"bcc", (PyCFunction)(void (*)(void))bcc,
     METH_VARARGS | METH_KEYWORDS, bcc_doc},
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

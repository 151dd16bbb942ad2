/* Depth-first walk over free canonical patterns, the compiled twin of
   powfree.counting._dfs, as a CPython extension module with one function, tally.
   Pair i is (per[i], win[i]), windows ascending.  Appending a to the free pattern
   w[0..p) completes the period-j window of length m iff a == w[p-j] and
   w[p+1-m+j..p) == w[p+1-m..p-j), so each node keeps its forbidden next letters in
   one bitmask, tallies its children by popcount and walks them while they are
   shorter than L.  The walk adds into (L+1) rows of k+1 uint64 cells, k <= L <= 25,
   and tally returns those cells as a new table: L+1 new lists of k+1 Python ints. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* P[L][d] is at most the Bell number B_L, and B_25 < 2**64 < B_26. */
#define MAX_LENGTH 25

static void walk(int k, Py_ssize_t np, const int *per, const int *win, int L, uint64_t *table,
                 unsigned char *w, int p, int distinct)
{
    uint64_t bad = 0;
    for (Py_ssize_t i = 0; i < np && win[i] <= p + 1; i++) {
        int j = per[i], m = win[i];
        if (m - j == 1 || (w[p - 1] == w[p - 1 - j]
                           && memcmp(w + p + 1 - m + j, w + p + 1 - m, m - j - 1) == 0))
            bad |= 1ull << w[p - j];
    }
    uint64_t *row = table + (size_t)(p + 1) * (k + 1);
    row[distinct] += distinct - __builtin_popcountll(bad);
    if (distinct < k)
        row[distinct + 1] += 1;
    if (p + 1 == L)
        return;
    for (int c = 1; c <= distinct; c++) {
        if (!(bad >> c & 1)) {
            w[p] = (unsigned char)c;
            walk(k, np, per, win, L, table, w, p + 1, distinct);
        }
    }
    if (distinct < k) {
        w[p] = (unsigned char)(distinct + 1);
        walk(k, np, per, win, L, table, w, p + 1, distinct + 1);
    }
}

/* The int of item i of a tuple, or -1 with an exception set. */
static int item_int(PyObject *tuple, Py_ssize_t i, long low, long high, const char *what)
{
    long v = PyLong_AsLong(PyTuple_GET_ITEM(tuple, i));
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < low || v > high) {
        PyErr_Format(PyExc_ValueError, "%s %ld outside %ld..%ld", what, v, low, high);
        return -1;
    }
    return (int)v;
}

/* Read pairs, a tuple, into per and win: each a (period, window) pair, period < window. */
static int read_pairs(PyObject *pairs, int *per, int *win)
{
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(pairs); i++) {
        PyObject *pair = PySequence_Tuple(PyTuple_GET_ITEM(pairs, i));
        if (pair == NULL)
            return -1;
        int ok = PyTuple_GET_SIZE(pair) == 2;
        if (!ok)
            PyErr_SetString(PyExc_ValueError, "a window pair must hold a period and a window");
        else if ((per[i] = item_int(pair, 0, 1, INT_MAX - 1, "period")) < 0
                 || (win[i] = item_int(pair, 1, per[i] + 1, INT_MAX, "window")) < 0)
            ok = 0;
        Py_DECREF(pair);
        if (!ok)
            return -1;
    }
    return 0;
}

/* Walk the completions of one (prefix, distinct) item of the frontier into cells. */
static int walk_item(PyObject *item, int k, Py_ssize_t np, const int *per, const int *win,
                     int L, uint64_t *cells)
{
    unsigned char w[MAX_LENGTH];
    if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 2) {
        PyErr_SetString(PyExc_TypeError, "a frontier item must be a (prefix, distinct) tuple");
        return -1;
    }
    int distinct = item_int(item, 1, 0, k, "distinct");
    if (distinct < 0)
        return -1;
    PyObject *letters = PySequence_Tuple(PyTuple_GET_ITEM(item, 0));
    if (letters == NULL)
        return -1;
    Py_ssize_t p = PyTuple_GET_SIZE(letters);
    int ok = p < L;
    if (!ok)
        PyErr_Format(PyExc_ValueError, "a prefix of length %zd is not shorter than L=%d", p, L);
    /* Letters 1..distinct keep every shift of the bitmask below 64. */
    for (Py_ssize_t i = 0; ok && i < p; i++) {
        int a = item_int(letters, i, 1, distinct, "letter");
        ok = a >= 0;
        w[i] = (unsigned char)a;
    }
    Py_DECREF(letters);
    if (!ok)
        return -1;
    walk(k, np, per, win, L, cells, w, (int)p, distinct);
    return 0;
}

/* cells as a new table, (L+1) new lists of k+1 Python ints, or NULL with an exception set. */
static PyObject *new_table(int k, int L, const uint64_t *cells)
{
    PyObject *table = PyList_New(L + 1);
    for (int r = 0; table != NULL && r <= L; r++) {
        PyObject *row = PyList_New(k + 1);
        for (int d = 0; row != NULL && d <= k; d++) {
            PyObject *c = PyLong_FromUnsignedLongLong(cells[r * (k + 1) + d]);
            if (c == NULL)
                Py_CLEAR(row);
            else
                PyList_SET_ITEM(row, d, c);
        }
        if (row == NULL)
            Py_CLEAR(table);
        else
            PyList_SET_ITEM(table, r, row);
    }
    return table;
}

static PyObject *tally(PyObject *self, PyObject *args)
{
    int k, L;
    PyObject *pairs_arg, *frontier_arg;
    if (!PyArg_ParseTuple(args, "iOiO:tally", &k, &pairs_arg, &L, &frontier_arg))
        return NULL;
    if (k < 0 || k > L || L > MAX_LENGTH)
        return PyErr_Format(PyExc_ValueError,
                            "tally needs 0 <= k <= L <= %d, got k=%d, L=%d", MAX_LENGTH, k, L);

    uint64_t cells[(MAX_LENGTH + 1) * (MAX_LENGTH + 1)] = {0};
    PyObject *pairs = PySequence_Tuple(pairs_arg);
    if (pairs == NULL)
        return NULL;
    Py_ssize_t np = PyTuple_GET_SIZE(pairs);
    int *per = PyMem_New(int, np), *win = PyMem_New(int, np);
    PyObject *frontier = NULL;
    int ok = per != NULL && win != NULL;
    if (!ok)
        PyErr_NoMemory();
    else if (read_pairs(pairs, per, win) < 0
             || (frontier = PySequence_Tuple(frontier_arg)) == NULL)
        ok = 0;
    for (Py_ssize_t i = 0; ok && i < PyTuple_GET_SIZE(frontier); i++)
        ok = walk_item(PyTuple_GET_ITEM(frontier, i), k, np, per, win, L, cells) == 0;
    Py_XDECREF(frontier);
    Py_DECREF(pairs);
    PyMem_Free(per);
    PyMem_Free(win);
    return ok ? new_table(k, L, cells) : NULL;
}

static PyMethodDef methods[] = {
    {"tally", tally, METH_VARARGS,
     "tally(k, pairs, max_length, frontier)\n\n"
     "The table of the free completions of every (prefix, distinct) in frontier."},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {
#ifdef Py_GIL_DISABLED
    {Py_mod_gil, Py_MOD_GIL_NOT_USED},
#endif
    {0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_walk", .m_methods = methods, .m_slots = slots,
};

PyMODINIT_FUNC PyInit__walk(void)
{
    return PyModuleDef_Init(&module);
}

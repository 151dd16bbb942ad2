/* Depth-first walk over free canonical patterns, the compiled twin of powfree.counting._dfs:
   a CPython extension module with one function, tally(k, max_length, periods, windows, letters,
   distincts), whose last four arguments are bytes.  Pair i is (periods[i], windows[i]), 1 <=
   period < window, windows ascending.  letters holds the frontier's prefixes back to back, all
   of one length below L, and distincts one count d <= k per prefix, whose letters are 1..d.
   Appending a to the free pattern w[0..p) completes the period-j window of length m iff a ==
   w[p-j] and w[p+1-m+j..p) == w[p+1-m..p-j), so each node keeps its forbidden next letters in
   one bitmask, tallies its children by popcount and walks them while shorter than L, into
   (L+1) rows of k+1 uint64 cells that tally returns as Python ints.  Its limits are its
   arguments': L <= 255, as periods and windows are bytes, and k <= 63, as letters index the
   64-bit mask.  A visited node adds at most 64 to the cells (at most 63 old children and one
   fresh letter), so no cell nears 2**64 before the walk has visited 2**58 nodes: centuries at
   tens of nanoseconds a node. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* One tally call: its pairs, the pattern being walked, the cells and the nodes visited. */
struct walk {
    int k, L;
    Py_ssize_t np;
    const unsigned char *per, *win;
    unsigned char w[255];
    uint64_t nodes, *cells;
};

/* Walk the completions of s->w[0..p); signal handlers run every 2**20 nodes, -1 if one raised. */
static int walk(struct walk *s, int p, int distinct)
{
    if ((++s->nodes & 0xfffff) == 0 && PyErr_CheckSignals() < 0)
        return -1;
    uint64_t bad = 0;
    for (Py_ssize_t i = 0; i < s->np && s->win[i] <= p + 1; i++) {
        int j = s->per[i], m = s->win[i];
        if (m - j == 1 || (s->w[p - 1] == s->w[p - 1 - j]
                           && memcmp(s->w + p + 1 - m + j, s->w + p + 1 - m, m - j - 1) == 0))
            bad |= 1ull << s->w[p - j];
    }
    uint64_t *row = s->cells + (size_t)(p + 1) * (s->k + 1);
    row[distinct] += distinct - __builtin_popcountll(bad);
    if (distinct < s->k)
        row[distinct + 1] += 1;
    if (p + 1 == s->L)
        return 0;
    /* No old letter forbids the fresh letter, distinct + 1. */
    for (int c = 1; c <= distinct + (distinct < s->k); c++) {
        if (!(bad >> c & 1)) {
            s->w[p] = (unsigned char)c;
            if (walk(s, p + 1, c > distinct ? c : distinct) < 0)
                return -1;
        }
    }
    return 0;
}

/* cells as a new table, (L+1) new lists of k+1 Python ints, or NULL with an exception set. */
static PyObject *new_table(int k, int L, const uint64_t *cells)
{
    PyObject *table = PyList_New(L + 1);
    for (int r = 0; table != NULL && r <= L; r++) {
        /* A list frees the NULL items of one left unfinished. */
        PyObject *row = PyList_New(k + 1), *c = row;
        PyList_SET_ITEM(table, r, row);
        for (int d = 0; c != NULL && d <= k; d++) {
            c = PyLong_FromUnsignedLongLong(cells[r * (k + 1) + d]);
            PyList_SET_ITEM(row, d, c);
        }
        if (c == NULL)
            Py_CLEAR(table);
    }
    return table;
}

static PyObject *tally(PyObject *self, PyObject *args)
{
    int k, L;
    const char *per, *win, *letters, *distincts;
    Py_ssize_t np, nwin, nletters, n;
    if (!PyArg_ParseTuple(args, "iiy#y#y#y#:tally", &k, &L, &per, &np, &win, &nwin,
                          &letters, &nletters, &distincts, &n))
        return NULL;
    if (k < 0 || k > L || k > 63 || L > 255)
        return PyErr_Format(PyExc_ValueError,
                            "tally needs 0 <= k <= L, k <= 63 and L <= 255, got k=%d, L=%d", k, L);
    /* At most 256 rows of 64 cells: 128 KB of stack, sized by the call. */
    uint64_t cells[(L + 1) * (k + 1)];
    memset(cells, 0, sizeof cells);
    struct walk s = {.k = k, .L = L, .np = np, .per = (const unsigned char *)per,
                     .win = (const unsigned char *)win, .cells = cells};
    if (nwin != np)
        return PyErr_Format(PyExc_ValueError, "a window pair must hold a period and a window");
    for (Py_ssize_t i = 0; i < np; i++) {
        if (s.per[i] < 1)
            return PyErr_Format(PyExc_ValueError, "period %d outside 1..254", s.per[i]);
        if (s.win[i] <= s.per[i])
            return PyErr_Format(PyExc_ValueError, "window %d outside %d..255", s.win[i],
                                s.per[i] + 1);
        /* The walk stops at the first window longer than the pattern. */
        if (i > 0 && s.win[i] < s.win[i - 1])
            return PyErr_Format(PyExc_ValueError, "window %d after window %d: windows ascend",
                                s.win[i], s.win[i - 1]);
    }
    Py_ssize_t p = n ? nletters / n : 0;
    if (p * n != nletters)
        return PyErr_Format(PyExc_ValueError, "%zd letters do not split into %zd prefixes",
                            nletters, n);
    if (n && p >= L)
        return PyErr_Format(PyExc_ValueError, "a prefix of length %zd is not shorter than L=%d",
                            p, L);
    for (Py_ssize_t i = 0; i < n; i++) {
        /* Letters 1..distinct keep every shift of the bitmask below 64. */
        int distinct = (unsigned char)distincts[i];
        if (distinct > k)
            return PyErr_Format(PyExc_ValueError, "distinct %d outside 0..%d", distinct, k);
        for (Py_ssize_t j = 0; j < p; j++) {
            int a = s.w[j] = (unsigned char)letters[i * p + j];
            if (a < 1 || a > distinct)
                return PyErr_Format(PyExc_ValueError, "letter %d outside 1..%d", a, distinct);
        }
        if (walk(&s, (int)p, distinct) < 0)
            return NULL;
    }
    return new_table(k, L, cells);
}

static PyMethodDef methods[] = {
    {"tally", tally, METH_VARARGS,
     "tally(k, max_length, periods, windows, letters, distincts)\n\n"
     "The table of the free completions of every prefix in letters, as bytes."},
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

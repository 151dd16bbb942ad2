/* Depth-first walk over free canonical patterns, with the tables of powfree.counting._dfs:
   a CPython extension module with one function, tally(k, max_length, periods, windows, prefix,
   distinct), whose periods, windows and prefix are bytes.  Pair i is (periods[i], windows[i]),
   1 <= period < window, windows ascending.  prefix is one canonical pattern shorter than L, whose
   letters are 1..distinct, distinct <= k.
   Appending b to the pattern w[0..p)c completes the period-j window of length m iff b == w[p+1-j]
   (c itself when j == 1) and the window's other letters repeat at distance j: c == w[p-j] and
   w[p+2-m+j..p) == w[p+2-m..p-j).  So one pass at w[0..p) over the windows of length <= p+2
   gives every child's forbidden next letters as a bitmask: a window of tail 1 forbids w[p+1-j]
   after every child (c after c at period 1), and a longer window forbids one letter after the
   child w[p-j] alone, when its other m-j-2 letters repeat.  Each node gets its mask from its
   parent, tallies its children by popcount and walks the free ones; children of length L-1 are
   tallied into row L from their masks and never visited.  Cells are (L+1) rows of k+1 uint64s
   that tally returns as Python ints.  Its limits are its arguments': L <= 255, as periods and
   windows are bytes, and k <= 63, as letters index the 64-bit mask.  A visited node adds at
   most 64 to row p+1 (at most 63 old children and one fresh letter) and at most 64*64 to row
   p+2, under 2**13 in all, so no cell nears 2**64 before the walk has visited 2**51 nodes:
   years at tens of nanoseconds a node. */
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

/* The number of set bits, without a call into libgcc where the target lacks popcnt. */
static inline int bits(uint64_t x)
{
    x -= x >> 1 & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + (x >> 2 & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (int)((x * 0x0101010101010101ull) >> 56);
}

/* The forbidden next letters of each child w[0..p)c, c = 1..top, into masks[1..top]: common
   to every child, c itself after c (same) and, per child, those of the longer windows. */
static void child_masks(const struct walk *s, int p, int top, uint64_t *masks)
{
    const unsigned char *w = s->w;
    uint64_t common = 0, same = 0;
    memset(masks, 0, (size_t)(top + 1) * sizeof *masks);
    for (Py_ssize_t i = 0; i < s->np && s->win[i] <= p + 2; i++) {
        int j = s->per[i], m = s->win[i];
        if (m - j == 1) {
            if (j == 1)
                same = 1;
            else
                common |= 1ull << w[p + 1 - j];
        } else if (m - j == 2 || (w[p - 1] == w[p - 1 - j]
                                  && memcmp(w + p + 2 - m + j, w + p + 2 - m, m - j - 2) == 0)) {
            masks[w[p - j]] |= 1ull << w[j == 1 ? p - 1 : p + 1 - j];
        }
    }
    for (int c = 1; c <= top; c++)
        masks[c] |= common | same << c;
}

/* Tally the children of a pattern of length p - 1 with this mask into row p. */
static void tally_children(struct walk *s, int p, int distinct, uint64_t bad)
{
    uint64_t *row = s->cells + (size_t)p * (s->k + 1);
    row[distinct] += distinct - bits(bad);
    if (distinct < s->k)
        row[distinct + 1] += 1;
}

/* Walk the completions of s->w[0..p), whose forbidden next letters are bad; signal handlers
   run every 2**20 nodes, -1 if one raised. */
static int walk(struct walk *s, int p, int distinct, uint64_t bad)
{
    if ((++s->nodes & 0xfffff) == 0 && PyErr_CheckSignals() < 0)
        return -1;
    tally_children(s, p + 1, distinct, bad);
    if (p + 1 == s->L)
        return 0;
    /* No old letter forbids the fresh letter, distinct + 1. */
    int top = distinct + (distinct < s->k);
    uint64_t masks[top + 1];
    child_masks(s, p, top, masks);
    if (p + 2 == s->L) {
        /* The children have length L-1 and are not visited: the free old ones add their old
           children to row L's cell distinct and their fresh ones to the next cell. */
        uint64_t *row = s->cells + (size_t)s->L * (s->k + 1);
        int old = distinct - bits(bad), forbidden = 0;
        for (int c = 1; c <= distinct; c++)
            forbidden += (int)(~bad >> c & 1) * bits(masks[c]);
        row[distinct] += (uint64_t)(old * distinct - forbidden);
        if (distinct < s->k) {
            row[distinct + 1] += old;
            tally_children(s, s->L, distinct + 1, masks[distinct + 1]);
        }
        return 0;
    }
    for (int c = 1; c <= top; c++) {
        if (!(bad >> c & 1)) {
            s->w[p] = (unsigned char)c;
            if (walk(s, p + 1, c > distinct ? c : distinct, masks[c]) < 0)
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
    int k, L, distinct;
    const char *per, *win, *prefix;
    Py_ssize_t np, nwin, p;
    if (!PyArg_ParseTuple(args, "iiy#y#y#i:tally", &k, &L, &per, &np, &win, &nwin, &prefix, &p,
                          &distinct))
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
    if (p >= L)
        return PyErr_Format(PyExc_ValueError, "a prefix of length %zd is not shorter than L=%d",
                            p, L);
    /* Letters 1..distinct keep every shift of the bitmask below 64. */
    if (distinct < 0 || distinct > k)
        return PyErr_Format(PyExc_ValueError, "distinct %d outside 0..%d", distinct, k);
    for (Py_ssize_t j = 0; j < p; j++) {
        int a = s.w[j] = (unsigned char)prefix[j];
        if (a < 1 || a > distinct)
            return PyErr_Format(PyExc_ValueError, "letter %d outside 1..%d", a, distinct);
    }
    /* The prefix's mask is the one its parent's pass gives its last letter. */
    uint64_t masks[distinct + 1];
    if (p > 0)
        child_masks(&s, (int)p - 1, distinct, masks);
    if (walk(&s, (int)p, distinct, p > 0 ? masks[s.w[p - 1]] : 0) < 0)
        return NULL;
    return new_table(k, L, cells);
}

static PyMethodDef methods[] = {
    {"tally", tally, METH_VARARGS,
     "tally(k, max_length, periods, windows, prefix, distinct)\n\n"
     "The table of the free completions of prefix, as bytes, whose letters are 1..distinct."},
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

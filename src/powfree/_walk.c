/* Depth-first walk over free canonical patterns, the compiled twin of
   powfree.counting._dfs.  Pair i is (per[i], win[i]), windows ascending.  Appending
   a to the free pattern w[0..p) completes the period-j window of length m iff
   a == w[p-j] and w[p+1-m+j..p) == w[p+1-m..p-j), so each node keeps its forbidden
   next letters in one bitmask, tallies its children by popcount and walks them
   while they are shorter than L.  table has (L+1) rows of k+1 cells, k <= L <= 25. */
#include <stdint.h>
#include <string.h>

static void walk(int k, int np, const int *per, const int *win, int L, uint64_t *table,
                 unsigned char *w, int p, int distinct)
{
    uint64_t bad = 0;
    for (int i = 0; i < np && win[i] <= p + 1; i++) {
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

/* Tally every completion of the free prefix (length p, distinct letters) at its
   length into table.  Returns 0, or -1 when the arguments are out of range. */
int powfree_walk(int k, int np, const int *per, const int *win, int L, uint64_t *table,
                 const unsigned char *prefix, int p, int distinct)
{
    unsigned char w[26];
    if (L > 25 || k > L || p < 0 || p >= L || distinct > k)
        return -1;
    memcpy(w, prefix, (size_t)p);
    walk(k, np, per, win, L, table, w, p, distinct);
    return 0;
}

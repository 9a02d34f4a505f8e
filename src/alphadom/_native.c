/* The native kernels of alphadom, in C: Louvain's local-move phase and the
   greedy fill scan.

   alphadom._native builds this file with the system C compiler on first use
   and calls it through ctypes; each kernel has a Python twin that is both
   the fallback without a compiler and the reference for its results.
   Graphs are CSR (indptr, indices) with int64 entries; a row lists the
   neighbours of a vertex other than itself. */
#include <stdint.h>
#include <stdlib.h>

/* One local-move phase of Louvain over one level; the Python twin is
   alphadom.community._local_moves_py.  Vertices are scanned in ascending
   index order, and each moves to the neighbouring community with the
   greatest gain  links * 2m - sigma * k_v,  strictly above the gain of
   staying; equal gains go to the lowest community id.  Sweeps repeat until
   one moves nothing.  Gains are exact int64 values: every factor is at most
   2m and the caller keeps 2m <= 2^31, so no product passes 2^62.

   Edge weights are int64 or, when weights is NULL, unit weights.  comm
   receives the community of every vertex.  Returns 1 if any vertex moved,
   0 if none did, -1 if memory ran out. */
int64_t alphadom_local_moves(int64_t n, const int64_t *indptr, const int64_t *indices,
                             const int64_t *weights, const int64_t *strength,
                             int64_t two_m, int64_t *comm)
{
    int64_t *sigma = malloc((size_t)n * sizeof *sigma);   /* strength per community */
    int64_t *links = calloc((size_t)n, sizeof *links);    /* v's link weight per community */
    int64_t *seen = malloc((size_t)n * sizeof *seen);     /* communities with links > 0 */
    int64_t moved_any = 0, moved = 1;

    if (sigma == NULL || links == NULL || seen == NULL) {
        free(sigma);
        free(links);
        free(seen);
        return -1;
    }
    for (int64_t v = 0; v < n; v++) {
        comm[v] = v;
        sigma[v] = strength[v];
    }
    while (moved) {
        moved = 0;
        for (int64_t v = 0; v < n; v++) {
            int64_t cv = comm[v], kv = strength[v], count = 0;
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
                int64_t c = comm[indices[e]];
                if (links[c] == 0)
                    seen[count++] = c;
                links[c] += weights != NULL ? weights[e] : 1;
            }
            int64_t base = links[cv] * two_m - (sigma[cv] - kv) * kv;
            int64_t best_c = cv, best_gain = base;
            for (int64_t i = 0; i < count; i++) {
                int64_t c = seen[i];
                int64_t gain = links[c] * two_m - sigma[c] * kv;
                links[c] = 0;
                if (c != cv && (gain > best_gain || (gain == best_gain && c < best_c))) {
                    best_c = c;
                    best_gain = gain;
                }
            }
            if (best_gain > base) {  /* a tie with staying keeps v where it is */
                sigma[cv] -= kv;
                sigma[best_c] += kv;
                comm[v] = best_c;
                moved = moved_any = 1;
            }
        }
    }
    free(sigma);
    free(links);
    free(seen);
    return moved_any;
}

static int compare_ranks(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* The greedy fill scan; the Python twin is alphadom.greedy._fill_py.  Each
   vertex v, in ascending index order, that is covered fewer times than its
   demand takes the missing count from the non-members of N[v] that come
   first in rank, a permutation of 0..n-1 (so sorting ranks picks the same
   vertices whatever the sort's stability).  cover holds the closed-
   neighbourhood coverage of the members marked in in_set; both are updated
   as vertices are added.  added receives the added vertices in the order
   they were taken, and needs room for n.  Returns their count, or -1 if
   memory ran out. */
int64_t alphadom_fill(int64_t n, const int64_t *indptr, const int64_t *indices,
                      const int64_t *rank, const int64_t *demands, int64_t *cover,
                      uint8_t *in_set, int64_t *added)
{
    int64_t count = 0;

    if (n == 0)
        return 0;
    int64_t *vertex = malloc((size_t)n * sizeof *vertex);          /* the inverse of rank */
    int64_t *candidates = malloc((size_t)n * sizeof *candidates);  /* ranks in N[v] */
    if (vertex == NULL || candidates == NULL) {
        free(vertex);
        free(candidates);
        return -1;
    }
    for (int64_t v = 0; v < n; v++)
        vertex[rank[v]] = v;
    for (int64_t v = 0; v < n; v++) {
        int64_t need = demands[v] - cover[v], found = 0;
        if (need <= 0)
            continue;
        for (int64_t e = indptr[v]; e < indptr[v + 1]; e++)
            if (!in_set[indices[e]])
                candidates[found++] = rank[indices[e]];
        if (!in_set[v])
            candidates[found++] = rank[v];
        if (need < found)  /* otherwise every candidate is taken */
            qsort(candidates, (size_t)found, sizeof *candidates, compare_ranks);
        else
            need = found;
        for (int64_t i = 0; i < need; i++) {
            int64_t u = vertex[candidates[i]];
            in_set[u] = 1;
            added[count++] = u;
            cover[u]++;
            for (int64_t e = indptr[u]; e < indptr[u + 1]; e++)
                cover[indices[e]]++;
        }
    }
    free(vertex);
    free(candidates);
    return count;
}

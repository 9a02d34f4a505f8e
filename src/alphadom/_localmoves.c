/* One local-move phase of Louvain over one level, in C.

   alphadom._native builds this file with the system C compiler on first use
   and calls it through ctypes; alphadom.community._local_moves_py is the
   same phase in Python and the reference for its moves.  Vertices are
   scanned in ascending index order, and each moves to the neighbouring
   community with the greatest gain  links * 2m - sigma * k_v,  strictly
   above the gain of staying; equal gains go to the lowest community id.
   Sweeps repeat until one moves nothing.  Gains are exact int64 values:
   every factor is at most 2m and the caller keeps 2m <= 2^31, so no
   product passes 2^62.

   The graph is CSR (indptr, indices), with int64 edge weights or, when
   weights is NULL, unit weights; a row lists the neighbours of a vertex
   other than itself.  comm receives the community of every vertex.
   Returns 1 if any vertex moved, 0 if none did, -1 if memory ran out. */
#include <stdint.h>
#include <stdlib.h>

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

/* The native kernels of alphadom, in C: Louvain's local-move phase, the
   greedy fill scan, and the parser of edge lists and weight tables, which
   hands over the vertex labels as one buffer of space-separated ASCII that
   Python decodes and splits once.

   alphadom._native builds this file with the system C compiler on first use
   and calls it through ctypes; each kernel has a Python twin that is both
   the fallback without a compiler and the reference for its results.  Each
   kernel takes one form of each argument.  The twins of the local moves
   and of the fill scan take the kernel's own arguments and give its
   results, so a caller makes one call to either; the parser's twins are
   line scanners that also take the file paths, which their errors name.
   Graphs are CSR (indptr, indices) with int64 entries; a row lists the
   neighbours of a vertex other than itself.  The fill scan compares
   ratios exactly in __int128, and is left out where the compiler has no
   such type. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One local-move phase of Louvain over one level; the Python twin is
   alphadom.community._local_moves_py.  Vertices are scanned in ascending
   index order, and each moves to the neighbouring community with the
   greatest gain  links * 2m - sigma * k_v,  strictly above the gain of
   staying; equal gains go to the lowest community id.  Sweeps repeat until
   one moves nothing.  Gains are exact int64 values: every factor is at most
   2m and the caller keeps 2m <= 2^31, so no product passes 2^62.

   weights[e] is the int64 weight of the edge at CSR entry e; the first
   level passes all ones.  comm receives the community of every vertex.
   Returns 1 if any vertex moved, 0 if none did, -1 if memory ran out. */
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
                links[c] += weights[e];
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

#ifdef __SIZEOF_INT128__  /* without 128-bit integers the fill scan runs in Python */

/* The ranking value of every vertex v, nums[v] / dens[v]. */
typedef struct {
    const int64_t *nums, *dens;
} ratios_t;

/* A candidate of the fill scan: vertex v and q, a float that never
   reverses the order of the ranking values. */
typedef struct {
    double q;
    int64_t v;
} candidate_t;

/* Whether a comes before b: the lower value, then the lower index.  Equal
   floats are settled by cross-multiplying, exactly, since every num and den
   is below 2^63. */
static int before(const ratios_t *r, const candidate_t *a, const candidate_t *b)
{
    if (a->q != b->q)
        return a->q < b->q;
    __int128 x = (__int128)r->nums[a->v] * r->dens[b->v];
    __int128 y = (__int128)r->nums[b->v] * r->dens[a->v];
    return x != y ? x < y : a->v < b->v;
}

static void swap(candidate_t *a, int64_t i, int64_t j)
{
    candidate_t x = a[i];
    a[i] = a[j];
    a[j] = x;
}

/* Restores the max-heap order of heap[0..size) below position i. */
static void sift_down(const ratios_t *r, candidate_t *heap, int64_t size, int64_t i)
{
    candidate_t x = heap[i];
    for (int64_t c; (c = 2 * i + 1) < size; i = c) {
        if (c + 1 < size && before(r, &heap[c], &heap[c + 1]))
            c++;
        if (!before(r, &x, &heap[c]))
            break;
        heap[i] = heap[c];
    }
    heap[i] = x;
}

/* Moves the k first of a[0..len), 0 < k < len, to a[0..k), in O(len log
   k): a max-heap of the first k takes every candidate before its top. */
static void heap_select(const ratios_t *r, candidate_t *a, int64_t len, int64_t k)
{
    for (int64_t i = k / 2; i-- > 0;)
        sift_down(r, a, k, i);
    for (int64_t i = k; i < len; i++) {
        if (before(r, &a[i], &a[0])) {
            swap(a, 0, i);
            sift_down(r, a, k, 0);
        }
    }
}

#define SMALL 16  /* ranges this short go to heap_select at once */

/* Moves the k first of the candidates a[0..len), 0 < k < len, in the order
   of before(), to a[0..k), in no particular order: introselect (Musser
   1997).  Each round partitions the range that holds the k-th around the
   median of its first, middle and last candidates and keeps the side that
   holds it, so a[0..lo) stays before and a[hi..len) after every candidate
   of a[lo..hi), and lo < k < hi.  That takes linear time on average.
   heap_select finishes the range once it is short, or after
   2 ceil(log2 len) rounds, so no input takes more than O(len log len). */
static void select_smallest(const ratios_t *r, candidate_t *a, int64_t len, int64_t k)
{
    int64_t lo = 0, hi = len, rounds = 0;

    for (int64_t span = 1; span < len; span *= 2)
        rounds += 2;
    for (; hi - lo > SMALL && rounds > 0; rounds--) {
        /* sort the first, middle and last candidates: the middle one is the
           pivot, and the other two stop the scans below */
        int64_t mid = lo + (hi - lo) / 2, last = hi - 1;
        if (before(r, &a[mid], &a[lo]))
            swap(a, lo, mid);
        if (before(r, &a[last], &a[mid])) {
            swap(a, mid, last);
            if (before(r, &a[mid], &a[lo]))
                swap(a, lo, mid);
        }
        int64_t i = lo, j = last - 1;
        candidate_t pivot = a[mid];
        swap(a, mid, j);
        for (;;) {
            while (before(r, &a[++i], &pivot))
                ;
            while (before(r, &pivot, &a[--j]))
                ;
            if (i > j)
                break;
            swap(a, i, j);
        }
        swap(a, i, last - 1);  /* now a[lo..i) < pivot = a[i] < a(i..hi) */
        if (i == k || i + 1 == k)
            return;
        if (i > k)
            hi = i;
        else
            lo = i + 1;
    }
    heap_select(r, a + lo, hi - lo, k - lo);
}

/* The greedy fill scan; the Python twin is alphadom.greedy._fill_py.  Each
   vertex v, in ascending index order, that is covered fewer times than its
   demand takes the missing count from the non-members of N[v] that come
   first in the order of before(), on the keys nums[u] / dens[u] and q[u] of
   alphadom.greedy._keys; a candidate carries its float, and the exact
   ratios are read only where floats are equal.  That order is total, so the
   first ones form one set, whatever order they are found in;
   select_smallest moves them to the front of the candidates in O(d) time on
   average and O(d log d) at worst for a row of d.  cover holds the closed-neighbourhood coverage of the
   members marked in in_set; both are updated as vertices are added, and
   are the scan's only output.  Returns 0, or -1 if memory ran out. */
int64_t alphadom_fill(int64_t n, const int64_t *indptr, const int64_t *indices,
                      const int64_t *nums, const int64_t *dens, const double *q,
                      const int64_t *demands, int64_t *cover, uint8_t *in_set)
{
    const ratios_t ratios = {nums, dens};
    int64_t size = 1;  /* the largest closed neighbourhood */
    for (int64_t v = 0; v < n; v++)
        if (indptr[v + 1] - indptr[v] >= size)
            size = indptr[v + 1] - indptr[v] + 1;
    candidate_t *candidates = malloc((size_t)size * sizeof *candidates);
    if (candidates == NULL)
        return -1;
    for (int64_t v = 0; v < n; v++) {
        int64_t need = demands[v] - cover[v], found = 0;
        if (need <= 0)
            continue;
        for (int64_t e = indptr[v]; e <= indptr[v + 1]; e++) {
            int64_t u = e < indptr[v + 1] ? indices[e] : v;  /* the row, then v */
            if (!in_set[u])
                candidates[found++] = (candidate_t){q[u], u};
        }
        if (need < found)  /* otherwise every candidate is taken */
            select_smallest(&ratios, candidates, found, need);
        else
            need = found;
        for (int64_t i = 0; i < need; i++) {
            int64_t u = candidates[i].v;
            in_set[u] = 1;
            cover[u]++;
            for (int64_t e = indptr[u]; e < indptr[u + 1]; e++)
                cover[indices[e]]++;
        }
    }
    free(candidates);
    return 0;
}

#endif

/* What alphadom_ingest returns: 0 when it parsed both files; a decline code
   when a file holds something it leaves to the Python line scanners, which
   either read it or report its first wrong line; or an error. */
enum {
    INGEST_OK = 0,
    DECLINE_BYTE = 1,       /* a byte >= 0x7f, or a control byte other than \t \n \r */
    DECLINE_TOKENS = 2,     /* a non-blank line without exactly two tokens */
    DECLINE_WEIGHT = 3,     /* a weight that is not [1-9][0-9]{0,17} */
    DECLINE_DUPLICATE = 4,  /* a label listed twice in the weight table */
    DECLINE_SELF_LOOP = 5,
    DECLINE_MISSING = 6,    /* an endpoint that the weight table does not list */
    INGEST_NO_MEMORY = -1,
    INGEST_NO_ROOM = -2     /* more vertices or edges than the caller made room for */
};

typedef struct {
    const unsigned char *text;
    int64_t len;
    uint64_t hash;
    uint64_t head;  /* the first 8 bytes, zero-padded */
} token_t;

/* The tokens of the line at *pos, which then moves past its end.  A line
   ends at \n, \r\n or a lone \r, as text-mode reading translates them, and
   its tokens are runs of the bytes 0x21..0x7e between spaces and tabs; any
   other byte declines, so only text on which Python's str.split() draws the
   same tokens is read here.  Returns 0 or 2 (the token count), or minus a
   decline code. */
static int scan_line(const unsigned char *s, int64_t size, int64_t *pos, token_t *tok)
{
    int64_t i = *pos;
    int count = 0;

    while (i < size) {
        unsigned char c = s[i];
        if (c == ' ' || c == '\t') {
            i++;
        } else if (c == '\n' || c == '\r') {
            i += (c == '\r' && i + 1 < size && s[i + 1] == '\n') ? 2 : 1;
            break;
        } else if (c < 0x21 || c > 0x7e) {
            return -DECLINE_BYTE;
        } else {
            if (count == 2)
                return -DECLINE_TOKENS;
            uint64_t h = 0xcbf29ce484222325u;  /* FNV-1a */
            int64_t start = i;
            for (; i < size && s[i] > 0x20 && s[i] < 0x7f; i++)
                h = (h ^ s[i]) * 0x100000001b3u;
            h ^= h >> 29;  /* spread the last bytes into the bits the table indexes by */
            h *= 0xbf58476d1ce4e5b9u;
            h ^= h >> 32;
            token_t *t = &tok[count++];
            *t = (token_t){s + start, i - start, h, 0};
            memcpy(&t->head, t->text, (size_t)(t->len < 8 ? t->len : 8));
        }
    }
    *pos = i;
    return count == 1 ? -DECLINE_TOKENS : count;
}

/* A slot of the label hash: the top 24 bits of the label's hash and the
   vertex index + 1 in the low 40 bits, or 0 when empty, beside the label's
   first 8 bytes.  Labels hold no zero byte, so the zero-padded heads of two
   labels shorter than 8 bytes are equal only when the labels are: a short
   label is then matched without reading it. */
typedef struct {
    uint64_t key;
    uint64_t head;
} slot_t;

/* A vertex's label: its byte span of text, which the hash compares, and
   its hash, to rehash when the hash grows. */
typedef struct {
    int64_t offset, length;
    uint64_t hash;
} label_t;

/* The vertices parsed so far, with an open-addressing hash of their labels.
   Each new label is also copied, with one space after it, to the end of
   out, which then holds out_size bytes. */
typedef struct {
    slot_t *slots;
    uint64_t mask;  /* capacity - 1; the capacity is a power of two */
    const unsigned char *text;
    int64_t n, max_vertices;
    label_t *label;
    int64_t *weight;
    char *out;
    int64_t out_size;
} vertices_t;

#define VERTEX_BITS 40
#define VERTEX_MASK ((UINT64_C(1) << VERTEX_BITS) - 1)
#define TAG(hash) ((hash) >> VERTEX_BITS << VERTEX_BITS)

/* The slot that holds tok's label, or the empty slot where it goes. */
static slot_t *find_slot(const vertices_t *t, const token_t *tok)
{
    for (uint64_t i = tok->hash & t->mask;; i = (i + 1) & t->mask) {
        slot_t *slot = &t->slots[i];
        if (slot->key == 0)
            return slot;
        if ((slot->key & ~VERTEX_MASK) != TAG(tok->hash) || slot->head != tok->head)
            continue;
        int64_t v = (int64_t)(slot->key & VERTEX_MASK) - 1;
        if (tok->len < 8 || (t->label[v].length == tok->len
                             && memcmp(t->text + t->label[v].offset, tok->text,
                                       (size_t)tok->len) == 0))
            return slot;
    }
}

/* Adds tok's label, which is not there yet and goes into the empty slot,
   as a new vertex of weight w.  Returns its index, or an error. */
static int64_t add_vertex(vertices_t *t, slot_t *slot, const token_t *tok, int64_t w)
{
    int64_t v = t->n;
    if (v == t->max_vertices)
        return INGEST_NO_ROOM;
    t->label[v] = (label_t){tok->text - t->text, tok->len, tok->hash};
    t->weight[v] = w;
    memcpy(t->out + t->out_size, tok->text, (size_t)tok->len);
    t->out[t->out_size + tok->len] = ' ';
    t->out_size += tok->len + 1;
    *slot = (slot_t){TAG(tok->hash) | (uint64_t)(v + 1), tok->head};
    t->n++;
    if ((uint64_t)t->n * 2 > t->mask) {  /* keep the load at most one half */
        uint64_t mask = t->mask * 2 + 1;
        slot_t *slots = calloc(mask + 1, sizeof *slots);
        if (slots == NULL)
            return INGEST_NO_MEMORY;
        for (uint64_t j = 0; j <= t->mask; j++) {
            if (t->slots[j].key == 0)
                continue;
            uint64_t i = t->label[(t->slots[j].key & VERTEX_MASK) - 1].hash & mask;
            while (slots[i].key != 0)
                i = (i + 1) & mask;
            slots[i] = t->slots[j];
        }
        free(t->slots);
        t->slots = slots;
        t->mask = mask;
    }
    return v;
}

/* The weight spelt by tok, or -1 unless it is [1-9][0-9]{0,17}, which is
   always below 2^63. */
static int64_t parse_weight(const token_t *tok)
{
    int64_t w = 0;
    if (tok->len > 18 || tok->text[0] == '0')
        return -1;
    for (int64_t i = 0; i < tok->len; i++) {
        if (tok->text[i] < '0' || tok->text[i] > '9')
            return -1;
        w = w * 10 + (tok->text[i] - '0');
    }
    return w;
}

#define BATCH 64  /* lines whose slots are fetched from memory at once */

/* Up to BATCH non-blank lines from *pos on, two tokens each into tok, with
   the first slot each token probes prefetched: on a table past the cache,
   the lookups then wait for memory together, not one after another.
   Returns the line count, or minus a decline code. */
static int read_batch(const vertices_t *t, const unsigned char *s, int64_t size,
                      int64_t *pos, token_t *tok)
{
    int lines = 0;
    while (lines < BATCH && *pos < size) {
        int count = scan_line(s, size, pos, &tok[2 * lines]);
        if (count < 0)
            return count;
        if (count == 0)
            continue;
        __builtin_prefetch(&t->slots[tok[2 * lines].hash & t->mask]);
        __builtin_prefetch(&t->slots[tok[2 * lines + 1].hash & t->mask]);
        lines++;
    }
    return lines;
}

static int64_t parse(vertices_t *t, const char *table, int64_t table_size,
                     const unsigned char *edges, int64_t edge_size, int64_t max_edges,
                     int64_t *ends, int64_t *m)
{
    token_t tok[2 * BATCH];
    int lines;

    for (int64_t pos = 0; table != NULL && pos < table_size;) {
        if ((lines = read_batch(t, t->text, table_size, &pos, tok)) < 0)
            return -lines;
        for (const token_t *line = tok; line < tok + 2 * lines; line += 2) {
            int64_t w = parse_weight(&line[1]);
            if (w < 0)
                return DECLINE_WEIGHT;
            slot_t *slot = find_slot(t, &line[0]);
            if (slot->key != 0)
                return DECLINE_DUPLICATE;
            int64_t v = add_vertex(t, slot, &line[0], w);
            if (v < 0)
                return v;
        }
    }
    for (int64_t pos = 0; pos < edge_size;) {
        if ((lines = read_batch(t, edges, edge_size, &pos, tok)) < 0)
            return -lines;
        for (const token_t *line = tok; line < tok + 2 * lines; line += 2) {
            if (line[0].hash == line[1].hash && line[0].len == line[1].len
                    && memcmp(line[0].text, line[1].text, (size_t)line[0].len) == 0)
                return DECLINE_SELF_LOOP;
            if (*m == max_edges)
                return INGEST_NO_ROOM;
            for (int k = 0; k < 2; k++) {
                slot_t *slot = find_slot(t, &line[k]);
                int64_t v = (int64_t)(slot->key & VERTEX_MASK) - 1;
                if (slot->key == 0 && table != NULL)
                    return DECLINE_MISSING;
                if (slot->key == 0 && (v = add_vertex(t, slot, &line[k], 1)) < 0)
                    return v;
                ends[2 * *m + k] = v;
            }
            ++*m;
        }
    }
    return INGEST_OK;
}

/* Parses an edge list and, unless table is NULL, a weight table; the Python
   twins are alphadom.io._scan_weight_table and alphadom.io._scan_edges,
   which also report the first wrong line where this declines.

   With a table, the vertices are its labels in table order, and an edge
   endpoint it does not list declines.  Without one, they are the edge
   list's labels in order of first appearance, each of weight 1.  labels
   receives every vertex's label in index order, each followed by one space
   (the labels are distinct, and hold no space), and weight[v] is vertex v's
   weight.  ends receives the two endpoints of every edge line in file
   order, repeats included.  counts receives the vertex count, the edge
   count and the bytes written to labels.  The caller makes room for
   max_vertices vertices, max_edges edges and, in labels, one byte more than
   the table, or the edge list when there is no table: a label is a token of
   that text, followed by a byte of it or by its end.  Returns INGEST_OK, a
   decline code, or an error. */
int64_t alphadom_ingest(const char *table, int64_t table_size, const char *edges,
                        int64_t edge_size, int64_t max_vertices, int64_t max_edges,
                        int64_t *weight, char *labels, int64_t *ends, int64_t *counts)
{
    const char *text = table != NULL ? table : edges;
    int64_t size = table != NULL ? table_size : edge_size, lines = 1;
    uint64_t capacity = 1024;

    /* sized for one label per line of the text the labels come from, so a
       weight table never grows it */
    for (int64_t i = 0; i < size; i++)
        lines += text[i] == '\n' || text[i] == '\r';
    while (capacity < (uint64_t)lines * 2 && capacity <= VERTEX_MASK)
        capacity *= 2;
    vertices_t t = {calloc(capacity, sizeof(slot_t)), capacity - 1,
                    (const unsigned char *)text, 0, max_vertices,
                    malloc((size_t)(max_vertices > 0 ? max_vertices : 1) * sizeof(label_t)),
                    weight, labels, 0};
    int64_t m = 0, status = INGEST_NO_MEMORY;

    if (max_vertices >= (int64_t)VERTEX_MASK)
        status = INGEST_NO_ROOM;
    else if (t.slots != NULL && t.label != NULL)
        status = parse(&t, table, table_size, (const unsigned char *)edges, edge_size,
                       max_edges, ends, &m);
    counts[0] = t.n;
    counts[1] = m;
    counts[2] = t.out_size;
    free(t.slots);
    free(t.label);
    return status;
}

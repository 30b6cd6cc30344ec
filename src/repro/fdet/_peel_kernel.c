/* Native peeling kernels: single-graph greedy peel + batched multi-member FDET.
 *
 * Everything in this file is an exact replica of the Python reference path —
 * same float64 operations in the same order on the same values — so results
 * are bitwise identical to the pure-Python reference engine. Two entry points:
 *
 * ``repro_greedy_peel``
 *     One peel of one flattened graph (``greedy_peel``'s fast engine). The
 *     initial per-node entries live in a radix-sorted "clean" stream consumed
 *     by a moving pointer, and only re-prioritised nodes enter a small binary
 *     "hot" heap. Under the shared lazy-deletion rule (lexicographic
 *     ``(priority, node)`` order, ``1e-12`` stale tolerance) the accepted pop
 *     sequence is identical to the reference heap's, at a fraction of the
 *     heap traffic.
 *
 * ``repro_fdet_batch``
 *     The full FDET block loop for MANY ensemble members in one call: the
 *     parent edge arrays are shared read-only, each member is described by a
 *     list of parent edge ids (in member order), and the kernel performs node
 *     compaction, CSR construction, per-block degree/weight/priority
 *     preparation, the peel, and block bookkeeping — everything
 *     ``materialize_plan`` + the reference ``Fdet.detect`` do per member,
 *     without materialising a subgraph object. ``Fdet.detect`` itself runs
 *     here as one all-edges member that keeps every node (``keep_nodes``).
 *     Members are independent; with OpenMP the loop runs ``n_threads`` wide
 *     (serial otherwise).
 *
 * Bitwise-parity notes (enforced by tests/fdet/test_batched_parity.py):
 *   - ``pairwise_sum`` replicates numpy's scalar pairwise summation
 *     (8 accumulator lanes, 128-element blocks, halved recursion) so
 *     ``edge_weights.sum()`` matches ``np.sum`` bit for bit. A Python-side
 *     probe verifies this at load time and disables the batch path on hosts
 *     where numpy sums differently.
 *   - ``np.add.at`` is unbuffered sequential addition in index order — the
 *     priority-init loops below mirror it exactly.
 *   - ``np.unique(x, return_inverse=True)`` on bounded non-negative ints is a
 *     presence scan + running rank — the node-compaction loops below.
 *   - A stable counting sort by endpoint equals numpy's stable argsort used
 *     by ``BipartiteGraph._build_adjacency``.
 *   - The radix sort key normalises ``-0.0`` to ``+0.0``: the comparator
 *     treats them equal (node id breaks the tie) but their raw bit patterns
 *     would order them apart.
 *
 * Dependency-free C (no Python.h); compiled on demand via ``_native.py``.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* pairwise summation — replica of numpy's scalar pairwise_sum_DOUBLE  */
/* ------------------------------------------------------------------ */

#define PW_BLOCKSIZE 128

static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0];
            r[1] += a[i + 1];
            r[2] += a[i + 2];
            r[3] += a[i + 3];
            r[4] += a[i + 4];
            r[5] += a[i + 5];
            r[6] += a[i + 6];
            r[7] += a[i + 7];
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

double repro_pairwise_sum(const double *a, int64_t n)
{
    return pairwise_sum(a, n);
}

/* ------------------------------------------------------------------ */
/* hot heap: binary min-heap of (priority, node), lexicographic        */
/* ------------------------------------------------------------------ */

/* Entries carry the priority as its monotone uint64 ``sort_key`` image
 * rather than the raw double: key order equals double order (with the
 * two zeros collapsed, exactly like the comparator treats them), so the
 * heap does single integer compares instead of float compare pairs. The
 * original double is recovered with ``key_to_double`` only at the one
 * place that needs it — the stale-entry tolerance check. */
typedef struct {
    uint64_t k;
    int64_t node;
} entry_t;

static inline int entry_lt(entry_t a, entry_t b)
{
    return a.k < b.k || (a.k == b.k && a.node < b.node);
}

/* The heap is 4-ary: pushes outnumber pops ~3:2 in the peel and both walk
 * half the levels of a binary heap. Arity is a pure layout choice — any
 * min-heap surfaces the same (key, node) minima in the same order (equal
 * duplicates are interchangeable), so the accepted pop sequence, and with
 * it bitwise parity, is unaffected. */
static inline void sift_down(entry_t *heap, int64_t size, int64_t i)
{
    entry_t v = heap[i];
    for (;;) {
        int64_t child = 4 * i + 1;
        if (child >= size)
            break;
        int64_t m = child;
        int64_t end = child + 4 < size ? child + 4 : size;
        for (int64_t j = child + 1; j < end; j++)
            if (entry_lt(heap[j], heap[m]))
                m = j;
        if (!entry_lt(heap[m], v))
            break;
        heap[i] = heap[m];
        i = m;
    }
    heap[i] = v;
}

static inline void sift_up(entry_t *heap, int64_t i)
{
    entry_t v = heap[i];
    while (i > 0) {
        int64_t parent = (i - 1) / 4;
        if (!entry_lt(v, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = v;
}

/* ------------------------------------------------------------------ */
/* radix sort of (double key, node) pairs                              */
/* ------------------------------------------------------------------ */

/* Monotone uint64 image of an IEEE double: flips the sign bit for
 * non-negatives and all bits for negatives, after normalising -0.0 to
 * +0.0 so the two zeros tie (node id then decides, matching the
 * lexicographic comparator). */
static inline uint64_t sort_key(double v)
{
    uint64_t bits;
    if (v == 0.0)
        v = 0.0; /* collapse -0.0 onto +0.0 */
    memcpy(&bits, &v, sizeof(bits));
    return (bits & 0x8000000000000000ULL) ? ~bits : (bits | 0x8000000000000000ULL);
}

/* Inverse of sort_key up to the -0.0/+0.0 collapse (both map back to +0.0,
 * which compares equal to -0.0 everywhere the value is used). */
static inline double key_to_double(uint64_t k)
{
    uint64_t bits = (k & 0x8000000000000000ULL) ? (k & 0x7FFFFFFFFFFFFFFFULL) : ~k;
    double v;
    memcpy(&v, &bits, sizeof(v));
    return v;
}

/* Stable LSD radix sort of keys[] with int64 payload vals[]; both scratch
 * buffers must hold n entries. Ends with the sorted data back in keys/vals.
 *
 * Six 11-bit digits cover the 64-bit key (the top pass sees 9 real bits),
 * and all six histograms are built in ONE scan of the input — the per-pass
 * counting reads of the classic formulation are the radix's main memory
 * traffic, so fusing them nearly halves it. A pass whose digit is constant
 * across all keys is skipped as an identity (stability makes that exact);
 * the histograms stay valid for later passes because a stable pass permutes
 * entries without changing any digit counts. */
static void radix_sort_pairs(
    uint64_t *keys, int64_t *vals, uint64_t *keys_tmp, int64_t *vals_tmp, int64_t n)
{
    enum { RADIX_PASSES = 6, RADIX_BINS = 2048 };
    if (n <= 1)
        return;
    int64_t counts[RADIX_PASSES][RADIX_BINS];
    memset(counts, 0, sizeof(counts));
    for (int64_t i = 0; i < n; i++) {
        uint64_t k = keys[i];
        for (int p = 0; p < RADIX_PASSES; p++)
            counts[p][(k >> (11 * p)) & 0x7FF]++;
    }
    uint64_t *ks = keys, *kd = keys_tmp;
    int64_t *vs = vals, *vd = vals_tmp;
    for (int p = 0; p < RADIX_PASSES; p++) {
        int64_t *c = counts[p];
        int shift = 11 * p;
        if (c[(ks[0] >> shift) & 0x7FF] == n)
            continue; /* all entries share this digit: the pass is identity */
        int64_t pos = 0;
        for (int b = 0; b < RADIX_BINS; b++) {
            int64_t t = c[b];
            c[b] = pos;
            pos += t;
        }
        for (int64_t i = 0; i < n; i++) {
            int64_t d = (int64_t)((ks[i] >> shift) & 0x7FF);
            kd[c[d]] = ks[i];
            vd[c[d]] = vs[i];
            c[d]++;
        }
        uint64_t *tk = ks;
        int64_t *tv = vs;
        ks = kd;
        vs = vd;
        kd = tk;
        vd = tv;
    }
    if (ks != keys) {
        memcpy(keys, ks, (size_t)n * sizeof(uint64_t));
        memcpy(vals, vs, (size_t)n * sizeof(int64_t));
    }
}

/* ------------------------------------------------------------------ */
/* peel core: clean stream + hot heap                                  */
/* ------------------------------------------------------------------ */

typedef struct {
    uint64_t *keys;
    uint64_t *keys_tmp;
    int64_t *clean_nodes;
    int64_t *nodes_tmp;
    double *clean_values;
    entry_t *hot;
    uint8_t *alive;
} peel_scratch_t;

/* Returns non-zero on allocation failure. n_flat bounds hot-heap pushes. */
static int scratch_alloc(peel_scratch_t *s, int64_t n, int64_t n_flat)
{
    memset(s, 0, sizeof(*s));
    s->keys = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    s->keys_tmp = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    s->clean_nodes = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    s->nodes_tmp = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    s->clean_values = (double *)malloc((size_t)n * sizeof(double));
    s->hot = (entry_t *)malloc((size_t)(n_flat + 1) * sizeof(entry_t));
    s->alive = (uint8_t *)malloc((size_t)n);
    return !(s->keys && s->keys_tmp && s->clean_nodes && s->nodes_tmp
             && s->clean_values && s->hot && s->alive);
}

static void scratch_free(peel_scratch_t *s)
{
    free(s->keys);
    free(s->keys_tmp);
    free(s->clean_nodes);
    free(s->nodes_tmp);
    free(s->clean_values);
    free(s->hot);
    free(s->alive);
}

/* Peel the flattened graph down to one node. Mutates prio in place (left at
 * its final state, like the reference). densities may be NULL when the
 * caller only needs the best prefix. Returns the number of nodes removed. */
static int64_t fast_peel_core(
    int64_t n,
    const int64_t *indptr,
    const int64_t *flat_other,
    const double *flat_w,
    double *prio,
    double total,
    int64_t *removal_order,
    double *densities,
    double *best_density_out,
    int64_t *best_removed_out,
    peel_scratch_t *s)
{
    uint8_t *alive = s->alive;
    entry_t *hot = s->hot;
    double *clean_values = s->clean_values;
    int64_t *clean_nodes = s->clean_nodes;
    const uint64_t *clean_keys = s->keys;

    for (int64_t i = 0; i < n; i++) {
        s->keys[i] = sort_key(prio[i]);
        clean_nodes[i] = i;
        alive[i] = 1;
    }
    radix_sort_pairs(s->keys, clean_nodes, s->keys_tmp, s->nodes_tmp, n);
    for (int64_t i = 0; i < n; i++)
        clean_values[i] = prio[clean_nodes[i]];

    double best_density = total / (double)n;
    if (densities)
        densities[0] = best_density;
    int64_t best_removed = 0;
    int64_t n_alive = n;
    int64_t removed = 0;
    int64_t clean_pos = 0;
    int64_t hot_size = 0;

    while (n_alive > 1) {
        int64_t node;
        /* hot-vs-clean on packed keys: key order is double order with the
         * two zeros collapsed, which is exactly how the lexicographic
         * comparator ranks them, so this picks the same winner. */
        if (hot_size > 0
            && (clean_pos >= n || hot[0].k < clean_keys[clean_pos]
                || (hot[0].k == clean_keys[clean_pos]
                    && hot[0].node < clean_nodes[clean_pos]))) {
            entry_t top = hot[0];
            hot[0] = hot[--hot_size];
            if (hot_size > 0)
                sift_down(hot, hot_size, 0);
            node = top.node;
            if (!alive[node] || key_to_double(top.k) > prio[node] + 1e-12)
                continue; /* stale hot entry */
        } else if (clean_pos < n) {
            node = clean_nodes[clean_pos];
            double value = clean_values[clean_pos];
            clean_pos++;
            if (!alive[node] || value > prio[node] + 1e-12)
                continue; /* node popped or re-prioritised since the sort */
        } else {
            break; /* unreachable: every alive node always has an entry */
        }

        alive[node] = 0;
        removal_order[removed++] = node;
        n_alive--;
        total -= prio[node];

        for (int64_t j = indptr[node]; j < indptr[node + 1]; j++) {
            int64_t other = flat_other[j];
            if (alive[other]) {
                double updated = prio[other] - flat_w[j];
                prio[other] = updated;
                hot[hot_size].k = sort_key(updated);
                hot[hot_size].node = other;
                sift_up(hot, hot_size);
                hot_size++;
            }
        }

        double density = total / (double)n_alive;
        if (densities)
            densities[removed] = density;
        if (density > best_density) {
            best_density = density;
            best_removed = removed;
        }
    }

    *best_density_out = best_density;
    *best_removed_out = best_removed;
    return removed;
}

/* ------------------------------------------------------------------ */
/* single-peel entry point (historical ABI, new internals)             */
/* ------------------------------------------------------------------ */

int64_t repro_greedy_peel(
    int64_t n,
    const int64_t *indptr,
    const int64_t *flat_other,
    const double *flat_w,
    double *prio,
    double total,
    int64_t *removal_order,
    double *densities,
    double *best_density_out,
    int64_t *best_removed_out)
{
    if (n <= 0)
        return 0;
    peel_scratch_t scratch;
    if (scratch_alloc(&scratch, n, indptr[n])) {
        scratch_free(&scratch);
        return -1;
    }
    int64_t removed = fast_peel_core(
        n, indptr, flat_other, flat_w, prio, total, removal_order, densities,
        best_density_out, best_removed_out, &scratch);
    scratch_free(&scratch);
    return removed;
}

/* ------------------------------------------------------------------ */
/* batched multi-member FDET                                           */
/* ------------------------------------------------------------------ */

/* The parent columns arrive in their *storage* dtype (compact stores keep
 * int32 ids / float32 weights on disk and in shm) and are widened at the
 * single load site: int32 -> int64 is exact, and (double)w32 reproduces the
 * float64 value exactly because compaction only narrows weights whose
 * round-trip is bit-exact. Everything downstream of these loads is
 * int64/double, so compact and wide parents peel bitwise-identically. */
static inline int64_t load_idx(const void *p, int64_t width, int64_t i)
{
    return width == 4 ? (int64_t)((const int32_t *)p)[i] : ((const int64_t *)p)[i];
}

static inline double load_w(const void *p, int64_t width, int64_t i)
{
    return width == 4 ? (double)((const float *)p)[i] : ((const double *)p)[i];
}

typedef struct {
    /* parent graph (read-only, shared across members) */
    int64_t pn_users;
    int64_t pn_merchants;
    const void *p_eu;  /* int32 or int64 per idx_width */
    const void *p_em;
    int64_t idx_width; /* endpoint itemsize in bytes: 4 or 8 */
    const void *p_w;   /* float or double per w_width; NULL when unweighted */
    int64_t w_width;   /* weight itemsize in bytes: 4 or 8 */
    const double *weight_table; /* merchant degree -> edge multiplier */
    /* member descriptions */
    const int64_t *edge_ids;
    const int64_t *edge_off;
    const double *scales;
    /* FDET config */
    int64_t max_blocks;
    int64_t min_block_edges;
    double min_density_ratio;
    int64_t frozen_policy;
    int64_t keep_nodes; /* 1: members keep every parent node, isolated ones too */
    /* outputs */
    int64_t *out_status;
    int64_t *out_nu;
    int64_t *out_nm;
    int64_t *kept_users;
    const int64_t *ku_off;
    int64_t *kept_merchants;
    const int64_t *km_off;
    int64_t *out_n_blocks;
    double *block_density;
    int64_t *block_n_edges;
    uint8_t *block_masks;
    const int64_t *mask_off;
} batch_args_t;

/* One member's full FDET run (Algorithm 1): node compaction, CSR build,
 * block loop with residual weights, peel, mask bookkeeping. Sets
 * out_status[m] = -1 on allocation failure (the caller re-runs the member
 * on its own). */
static void run_member(const batch_args_t *a, int64_t m)
{
    int64_t me = a->edge_off[m + 1] - a->edge_off[m];
    const int64_t *ids = a->edge_ids + a->edge_off[m];
    double scale = a->scales[m];

    a->out_status[m] = 0;
    a->out_n_blocks[m] = 0;
    a->out_nu[m] = 0;
    a->out_nm[m] = 0;
    if (me == 0)
        return; /* empty sample: no nodes, no blocks (k_hat = 0) */

    uint8_t *present_u = NULL, *present_m = NULL, *edge_alive = NULL, *keep = NULL;
    int64_t *remap_u = NULL, *remap_m = NULL, *mu = NULL, *mm = NULL;
    int64_t *indptr = NULL, *flat_edge = NULL, *flat_other = NULL, *fill = NULL;
    int64_t *sub_indptr = NULL, *sub_other = NULL, *removal_order = NULL;
    int64_t *deg = NULL, *deg_frozen = NULL;
    double *mw = NULL, *full_w = NULL, *ew = NULL, *sub_w = NULL, *prio = NULL;
    peel_scratch_t scratch;
    memset(&scratch, 0, sizeof(scratch));
    int scratch_ok = 0;

    /* ---- node compaction: np.unique(endpoints, return_inverse=True);
     * with keep_nodes every parent node stays (the identity relabel) ---- */
    present_u = (uint8_t *)calloc((size_t)a->pn_users, 1);
    present_m = (uint8_t *)calloc((size_t)a->pn_merchants, 1);
    remap_u = (int64_t *)malloc((size_t)a->pn_users * sizeof(int64_t));
    remap_m = (int64_t *)malloc((size_t)a->pn_merchants * sizeof(int64_t));
    mu = (int64_t *)malloc((size_t)me * sizeof(int64_t));
    mm = (int64_t *)malloc((size_t)me * sizeof(int64_t));
    mw = (double *)malloc((size_t)me * sizeof(double));
    if (!present_u || !present_m || !remap_u || !remap_m || !mu || !mm || !mw)
        goto alloc_failed;

    for (int64_t i = 0; i < me; i++) {
        present_u[load_idx(a->p_eu, a->idx_width, ids[i])] = 1;
        present_m[load_idx(a->p_em, a->idx_width, ids[i])] = 1;
    }
    int64_t nu = 0, nm = 0;
    {
        int64_t *ku = a->kept_users + a->ku_off[m];
        for (int64_t u = 0; u < a->pn_users; u++)
            if (present_u[u] || a->keep_nodes) {
                ku[nu] = u;
                remap_u[u] = nu++;
            }
        int64_t *km = a->kept_merchants + a->km_off[m];
        for (int64_t v = 0; v < a->pn_merchants; v++)
            if (present_m[v] || a->keep_nodes) {
                km[nm] = v;
                remap_m[v] = nm++;
            }
    }
    a->out_nu[m] = nu;
    a->out_nm[m] = nm;
    for (int64_t i = 0; i < me; i++) {
        int64_t e = ids[i];
        mu[i] = remap_u[load_idx(a->p_eu, a->idx_width, e)];
        mm[i] = remap_m[load_idx(a->p_em, a->idx_width, e)];
        /* weights_or_ones() * weight_scale; x * 1.0 is an exact identity */
        mw[i] = (a->p_w ? load_w(a->p_w, a->w_width, e) : 1.0) * scale;
    }
    free(present_u);
    free(present_m);
    free(remap_u);
    free(remap_m);
    present_u = present_m = NULL;
    remap_u = remap_m = NULL;

    /* ---- per-member scratch ---- */
    {
        int64_t n = nu + nm;
        int64_t n_flat = 2 * me;
        indptr = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
        fill = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
        flat_edge = (int64_t *)malloc((size_t)n_flat * sizeof(int64_t));
        flat_other = (int64_t *)malloc((size_t)n_flat * sizeof(int64_t));
        sub_indptr = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
        sub_other = (int64_t *)malloc((size_t)n_flat * sizeof(int64_t));
        sub_w = (double *)malloc((size_t)n_flat * sizeof(double));
        full_w = (double *)malloc((size_t)me * sizeof(double));
        ew = (double *)malloc((size_t)me * sizeof(double));
        prio = (double *)malloc((size_t)n * sizeof(double));
        deg = (int64_t *)malloc((size_t)nm * sizeof(int64_t));
        edge_alive = (uint8_t *)malloc((size_t)me);
        removal_order = (int64_t *)malloc((size_t)n * sizeof(int64_t));
        keep = (uint8_t *)malloc((size_t)n);
        if (!indptr || !fill || !flat_edge || !flat_other || !sub_indptr
            || !sub_other || !sub_w || !full_w || !ew || !prio || !deg
            || !edge_alive || !removal_order || !keep)
            goto alloc_failed;
        if (scratch_alloc(&scratch, n, n_flat))
            goto alloc_failed;
        scratch_ok = 1;

        /* ---- combined CSR: user spans then merchant spans, each span in
         * edge order (== numpy's stable argsort by endpoint) ---- */
        memset(indptr, 0, (size_t)(n + 1) * sizeof(int64_t));
        for (int64_t i = 0; i < me; i++)
            indptr[mu[i] + 1]++;
        for (int64_t i = 0; i < me; i++)
            indptr[nu + mm[i] + 1]++;
        for (int64_t v = 0; v < n; v++)
            indptr[v + 1] += indptr[v];
        memcpy(fill, indptr, (size_t)(n + 1) * sizeof(int64_t));
        for (int64_t i = 0; i < me; i++) {
            int64_t pos = fill[mu[i]]++;
            flat_edge[pos] = i;
            flat_other[pos] = nu + mm[i];
        }
        for (int64_t i = 0; i < me; i++) {
            int64_t pos = fill[nu + mm[i]]++;
            flat_edge[pos] = i;
            flat_other[pos] = mu[i];
        }

        if (a->frozen_policy) {
            deg_frozen = (int64_t *)malloc((size_t)nm * sizeof(int64_t));
            if (!deg_frozen)
                goto alloc_failed;
            memset(deg_frozen, 0, (size_t)nm * sizeof(int64_t));
            for (int64_t i = 0; i < me; i++)
                deg_frozen[mm[i]]++;
        }

        /* ---- the FDET block loop ---- */
        memset(edge_alive, 1, (size_t)me);
        int64_t n_alive_edges = me;
        int64_t n_blocks = 0;
        double first_density = 0.0;
        int have_first = 0;
        int64_t row_bytes = (n + 7) / 8;

        for (int64_t b = 0; b < a->max_blocks; b++) {
            if (n_alive_edges == 0)
                break;

            const int64_t *deg_cur = deg_frozen;
            if (!a->frozen_policy) {
                memset(deg, 0, (size_t)nm * sizeof(int64_t));
                for (int64_t i = 0; i < me; i++)
                    if (edge_alive[i])
                        deg[mm[i]]++;
                deg_cur = deg;
            }

            /* residual edge weights: table[degree] * member weight, in
             * residual (compacted) edge order */
            int64_t r = 0;
            for (int64_t i = 0; i < me; i++)
                if (edge_alive[i]) {
                    double w = a->weight_table[deg_cur[mm[i]]] * mw[i];
                    ew[r++] = w;
                    full_w[i] = w;
                }

            /* priority = priors.copy() (zeros) + two np.add.at passes */
            for (int64_t v = 0; v < n; v++)
                prio[v] = 0.0;
            for (int64_t i = 0; i < me; i++)
                if (edge_alive[i])
                    prio[mu[i]] += full_w[i];
            for (int64_t i = 0; i < me; i++)
                if (edge_alive[i])
                    prio[nu + mm[i]] += full_w[i];

            /* float(priors.sum() + edge_weights.sum()) */
            double total = 0.0 + pairwise_sum(ew, r);

            /* adjacency restricted to alive edges (span order kept) */
            const int64_t *use_indptr;
            const int64_t *use_other;
            if (n_alive_edges == me) {
                use_indptr = indptr;
                use_other = flat_other;
                for (int64_t j = 0; j < n_flat; j++)
                    sub_w[j] = full_w[flat_edge[j]];
            } else {
                int64_t pos = 0;
                for (int64_t v = 0; v < n; v++) {
                    sub_indptr[v] = pos;
                    for (int64_t j = indptr[v]; j < indptr[v + 1]; j++) {
                        int64_t e = flat_edge[j];
                        if (edge_alive[e]) {
                            sub_other[pos] = flat_other[j];
                            sub_w[pos] = full_w[e];
                            pos++;
                        }
                    }
                }
                sub_indptr[n] = pos;
                use_indptr = sub_indptr;
                use_other = sub_other;
            }

            double best_density;
            int64_t best_removed;
            fast_peel_core(
                n, use_indptr, use_other, sub_w, prio, total, removal_order,
                NULL, &best_density, &best_removed, &scratch);

            memset(keep, 1, (size_t)n);
            for (int64_t i = 0; i < best_removed; i++)
                keep[removal_order[i]] = 0;

            int64_t count = 0;
            for (int64_t i = 0; i < me; i++)
                if (edge_alive[i] && keep[mu[i]] && keep[nu + mm[i]])
                    count++;
            if (count < a->min_block_edges)
                break;

            uint8_t *row = a->block_masks + a->mask_off[m] + n_blocks * row_bytes;
            memset(row, 0, (size_t)row_bytes);
            for (int64_t v = 0; v < n; v++)
                if (keep[v])
                    row[v >> 3] |= (uint8_t)(1u << (v & 7));
            a->block_density[m * a->max_blocks + n_blocks] = best_density;
            a->block_n_edges[m * a->max_blocks + n_blocks] = count;
            n_blocks++;

            if (!have_first) {
                first_density = best_density;
                have_first = 1;
            } else if (a->min_density_ratio > 0.0
                       && best_density < a->min_density_ratio * first_density) {
                break;
            }

            for (int64_t i = 0; i < me; i++)
                if (edge_alive[i] && keep[mu[i]] && keep[nu + mm[i]])
                    edge_alive[i] = 0;
            n_alive_edges -= count;
        }
        a->out_n_blocks[m] = n_blocks;
    }
    goto cleanup;

alloc_failed:
    a->out_status[m] = -1;
    a->out_n_blocks[m] = 0;

cleanup:
    free(present_u);
    free(present_m);
    free(remap_u);
    free(remap_m);
    free(mu);
    free(mm);
    free(mw);
    free(indptr);
    free(fill);
    free(flat_edge);
    free(flat_other);
    free(sub_indptr);
    free(sub_other);
    free(sub_w);
    free(full_w);
    free(ew);
    free(prio);
    free(deg);
    free(deg_frozen);
    free(edge_alive);
    free(removal_order);
    free(keep);
    if (scratch_ok)
        scratch_free(&scratch);
}

int64_t repro_fdet_batch(
    int64_t pn_users,
    int64_t pn_merchants,
    const void *p_eu,
    const void *p_em,
    int64_t idx_width,
    const void *p_w,
    int64_t has_weights,
    int64_t w_width,
    const double *weight_table,
    int64_t n_members,
    const int64_t *edge_ids,
    const int64_t *edge_off,
    const double *scales,
    int64_t max_blocks,
    int64_t min_block_edges,
    double min_density_ratio,
    int64_t frozen_policy,
    int64_t keep_nodes,
    int64_t n_threads,
    int64_t *out_status,
    int64_t *out_nu,
    int64_t *out_nm,
    int64_t *kept_users,
    const int64_t *ku_off,
    int64_t *kept_merchants,
    const int64_t *km_off,
    int64_t *out_n_blocks,
    double *block_density,
    int64_t *block_n_edges,
    uint8_t *block_masks,
    const int64_t *mask_off)
{
    batch_args_t args;
    args.pn_users = pn_users;
    args.pn_merchants = pn_merchants;
    args.p_eu = p_eu;
    args.p_em = p_em;
    args.idx_width = idx_width;
    args.p_w = has_weights ? p_w : NULL;
    args.w_width = w_width;
    args.weight_table = weight_table;
    args.edge_ids = edge_ids;
    args.edge_off = edge_off;
    args.scales = scales;
    args.max_blocks = max_blocks;
    args.min_block_edges = min_block_edges;
    args.min_density_ratio = min_density_ratio;
    args.frozen_policy = frozen_policy;
    args.keep_nodes = keep_nodes;
    args.out_status = out_status;
    args.out_nu = out_nu;
    args.out_nm = out_nm;
    args.kept_users = kept_users;
    args.ku_off = ku_off;
    args.kept_merchants = kept_merchants;
    args.km_off = km_off;
    args.out_n_blocks = out_n_blocks;
    args.block_density = block_density;
    args.block_n_edges = block_n_edges;
    args.block_masks = block_masks;
    args.mask_off = mask_off;

#ifdef _OPENMP
    if (n_threads < 1)
        n_threads = 1;
#pragma omp parallel for schedule(dynamic, 1) num_threads((int)n_threads)
    for (int64_t m = 0; m < n_members; m++)
        run_member(&args, m);
#else
    (void)n_threads;
    for (int64_t m = 0; m < n_members; m++)
        run_member(&args, m);
#endif
    return 0;
}

/* 1 when this build runs members OpenMP-parallel, 0 for the serial build. */
int64_t repro_has_openmp(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

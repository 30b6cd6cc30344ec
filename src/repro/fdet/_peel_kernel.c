/* Native peeling kernels: single-graph greedy peel + batched multi-member FDET.
 *
 * Everything in this file is an exact replica of the Python reference path —
 * same float64 operations in the same order on the same values — so results
 * are bitwise identical to the pure-Python reference engine. Two entry points
 * share one peel loop (``peel_core``):
 *
 * ``repro_greedy_peel``
 *     One peel of one flattened graph (``greedy_peel``'s fast engine).
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
 * The peel: running minimum instead of lazy deletion. The reference pops a
 * ``(priority, node)`` heap and pushes a fresh entry on every decrement,
 * skipping stale entries. An alive node's FIRST popped entry is the minimum
 * of every key it ever carried (initial priority and each decrement), which
 * is never above its current priority, so that entry is always accepted —
 * for any weight sign. The reference therefore peels each node at its
 * running-minimum key, in lexicographic ``(key, node)`` order. The kernel
 * does exactly that: the initial keys form a radix-sorted "clean" stream
 * read by a moving pointer, and a node whose key drops below its running
 * minimum gets (or moves) its single entry in an indexed "hot" heap. Every
 * pop is accepted; a clean entry is only skipped once its node is gone.
 *
 * The residual block rule. Each FDET block peels the graph left after the
 * earlier blocks' edges are removed; most of its nodes are isolated (no
 * alive edge, priority exactly 0.0). When every live node's initial
 * priority is ``> 0.0``, the isolated nodes hold the smallest key, have no
 * neighbour to decrement, and so pop first in node order: their density
 * prefix ``total / (n - k)``, k = 1..n_iso, is replayed with the same float
 * ops (``total -= 0.0`` is an identity) and only the live nodes are sorted
 * and peeled. The batch kernel keeps the residual as an edge-ordered list of
 * alive edges plus per-node alive adjacency spans, filtered in place after
 * each block, so a block costs its live graph, not the member. Guard: if
 * any live node's priority is not ``> 0.0`` (zero or negative weights), the
 * block peels all n nodes through the same loop.
 *
 * Bitwise-parity notes (enforced by tests/fdet/test_batched_parity.py and
 * tests/fdet/test_engine_parity.py against the reference engine):
 *   - ``pairwise_sum`` replicates numpy's scalar pairwise summation
 *     (8 accumulator lanes, 128-element blocks, halved recursion) so
 *     ``edge_weights.sum()`` matches ``np.sum`` bit for bit. A Python-side
 *     probe verifies this at load time and disables the batch path on hosts
 *     where numpy sums differently.
 *   - ``np.add.at`` is unbuffered sequential addition in index order — the
 *     priority-init loops below mirror it exactly, over the alive edges in
 *     edge order.
 *   - ``np.unique(x, return_inverse=True)`` on bounded non-negative ints is a
 *     presence scan + running rank — the node-compaction loops below.
 *   - A stable counting sort by endpoint equals numpy's stable argsort used
 *     by ``BipartiteGraph._build_adjacency``; filtering a span in place keeps
 *     that order.
 *   - Keys are the monotone uint64 image of the priority with ``-0.0``
 *     normalised to ``+0.0``: the comparator treats the zeros as equal (node
 *     id breaks the tie) but their raw bit patterns would order them apart.
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
/* hot heap: indexed 4-ary min-heap of (key, node), one entry per node */
/* ------------------------------------------------------------------ */

/* Entries carry the priority as its monotone uint64 ``sort_key`` image
 * rather than the raw double: key order equals double order (with the
 * two zeros collapsed, exactly like the comparator treats them), so the
 * heap does single integer compares instead of float compare pairs. */
typedef struct {
    uint64_t k;
    int64_t node;
} entry_t;

static inline int entry_lt(entry_t a, entry_t b)
{
    return a.k < b.k || (a.k == b.k && a.node < b.node);
}

/* ``pos[node]`` is the slot of the node's entry, kept current by both sifts.
 * The heap is 4-ary: key decreases outnumber pops and each walks up half
 * the levels of a binary heap. Arity is a pure layout choice — any min-heap
 * surfaces the same (key, node) minima in the same order — so the pop
 * sequence, and with it bitwise parity, is unaffected. */
static inline void sift_down(entry_t *heap, int64_t *pos, int64_t size, int64_t i)
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
        pos[heap[i].node] = i;
        i = m;
    }
    heap[i] = v;
    pos[v.node] = i;
}

static inline void sift_up(entry_t *heap, int64_t *pos, int64_t i)
{
    entry_t v = heap[i];
    while (i > 0) {
        int64_t parent = (i - 1) / 4;
        if (!entry_lt(v, heap[parent]))
            break;
        heap[i] = heap[parent];
        pos[heap[i].node] = i;
        i = parent;
    }
    heap[i] = v;
    pos[v.node] = i;
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
/* peel core: clean stream + indexed hot heap                          */
/* ------------------------------------------------------------------ */

typedef struct {
    uint64_t *keys;        /* clean stream: initial keys, sorted */
    uint64_t *keys_tmp;
    int64_t *clean_nodes;  /* clean stream: nodes, sorted with their keys */
    int64_t *nodes_tmp;
    uint64_t *min_key;     /* per node: running-minimum key */
    int64_t *hot_pos;      /* per node: slot in hot, -1 when absent */
    entry_t *hot;          /* at most one entry per node */
    uint8_t *alive;
} peel_scratch_t;

/* Returns non-zero on allocation failure; every buffer holds n (>= 1) items. */
static int scratch_alloc(peel_scratch_t *s, int64_t n)
{
    memset(s, 0, sizeof(*s));
    s->keys = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    s->keys_tmp = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    s->clean_nodes = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    s->nodes_tmp = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    s->min_key = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    s->hot_pos = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    s->hot = (entry_t *)malloc((size_t)n * sizeof(entry_t));
    s->alive = (uint8_t *)malloc((size_t)n);
    return !(s->keys && s->keys_tmp && s->clean_nodes && s->nodes_tmp
             && s->min_key && s->hot_pos && s->hot && s->alive);
}

static void scratch_free(peel_scratch_t *s)
{
    free(s->keys);
    free(s->keys_tmp);
    free(s->clean_nodes);
    free(s->nodes_tmp);
    free(s->min_key);
    free(s->hot_pos);
    free(s->hot);
    free(s->alive);
}

/* Peel an n-node graph down to one node. Only the n_live nodes listed in
 * ``live`` (ascending; NULL: all n) go through the heap; the other
 * n - n_live nodes must be isolated with priority 0.0 below every live
 * priority, so they pop first in node order (the residual rule in the file
 * header). Node v's half-edges are adj_other/adj_w[span_lo[v]:span_hi[v]].
 * Mutates prio in place (left at its final state, like the reference).
 * removal_order receives the live nodes in pop order; densities (may be
 * NULL) receives the density after each removal, isolated ones included.
 * Returns the number of nodes removed. */
static int64_t peel_core(
    int64_t n,
    int64_t n_live,
    const int64_t *live,
    const int64_t *span_lo,
    const int64_t *span_hi,
    const int64_t *adj_other,
    const double *adj_w,
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
    int64_t *hot_pos = s->hot_pos;
    uint64_t *min_key = s->min_key;
    uint64_t *clean_keys = s->keys;
    int64_t *clean_nodes = s->clean_nodes;
    int64_t n_iso = n - n_live;

    for (int64_t i = 0; i < n_live; i++) {
        int64_t v = live ? live[i] : i;
        uint64_t k = sort_key(prio[v]);
        clean_keys[i] = k;
        clean_nodes[i] = v;
        min_key[v] = k;
        hot_pos[v] = -1;
        alive[v] = 1;
    }
    radix_sort_pairs(clean_keys, clean_nodes, s->keys_tmp, s->nodes_tmp, n_live);

    double best_density = total / (double)n;
    if (densities)
        densities[0] = best_density;
    int64_t best_removed = 0;
    int64_t n_alive = n;
    int64_t removed = 0;
    int64_t clean_pos = 0;
    int64_t hot_size = 0;

    while (n_alive > 1) {
        /* removed < n_iso: an isolated node pops; it has no edges and
         * total -= 0.0 leaves total bitwise unchanged */
        if (removed >= n_iso) {
            while (!alive[clean_nodes[clean_pos]])
                clean_pos++; /* popped from hot since the sort */
            int64_t node;
            /* hot-vs-clean on packed keys: key order is double order with
             * the two zeros collapsed, which is exactly how the
             * lexicographic comparator ranks them. An alive node has a
             * clean entry, so the clean stream is never exhausted here. */
            if (hot_size > 0
                && (hot[0].k < clean_keys[clean_pos]
                    || (hot[0].k == clean_keys[clean_pos]
                        && hot[0].node < clean_nodes[clean_pos]))) {
                node = hot[0].node;
                if (--hot_size > 0) {
                    hot[0] = hot[hot_size];
                    sift_down(hot, hot_pos, hot_size, 0);
                }
            } else {
                node = clean_nodes[clean_pos++];
            }

            alive[node] = 0;
            removal_order[removed - n_iso] = node;
            total -= prio[node];

            for (int64_t j = span_lo[node]; j < span_hi[node]; j++) {
                int64_t other = adj_other[j];
                if (!alive[other])
                    continue;
                double updated = prio[other] - adj_w[j];
                prio[other] = updated;
                uint64_t k = sort_key(updated);
                if (k < min_key[other]) {
                    min_key[other] = k;
                    int64_t at = hot_pos[other];
                    if (at < 0) {
                        at = hot_size++;
                        hot[at].node = other;
                    }
                    hot[at].k = k;
                    sift_up(hot, hot_pos, at);
                }
            }
        }
        removed++;
        n_alive--;

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
/* single-peel entry point                                             */
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
    if (scratch_alloc(&scratch, n)) {
        scratch_free(&scratch);
        return -1;
    }
    int64_t removed = peel_core(
        n, n, NULL, indptr, indptr + 1, flat_other, flat_w, prio, total,
        removal_order, densities, best_density_out, best_removed_out, &scratch);
    scratch_free(&scratch);
    return removed;
}

/* ------------------------------------------------------------------ */
/* batched multi-member FDET                                           */
/* ------------------------------------------------------------------ */

/* The parent columns arrive in their *storage* dtype (compact stores keep
 * int32 ids / float32 weights in their store files) and are widened at the
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
 * block loop over the residual graph, peel, mask bookkeeping. Sets
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
    int64_t *indptr = NULL, *span_hi = NULL, *flat_edge = NULL, *flat_other = NULL;
    int64_t *alive_edges = NULL, *live = NULL, *removal_order = NULL;
    double *mw = NULL, *full_w = NULL, *ew = NULL, *half_w = NULL, *prio = NULL;
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
        int64_t n_half = 2 * me;
        indptr = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
        span_hi = (int64_t *)malloc((size_t)n * sizeof(int64_t));
        flat_edge = (int64_t *)malloc((size_t)n_half * sizeof(int64_t));
        flat_other = (int64_t *)malloc((size_t)n_half * sizeof(int64_t));
        half_w = (double *)malloc((size_t)n_half * sizeof(double));
        full_w = (double *)malloc((size_t)me * sizeof(double));
        ew = (double *)malloc((size_t)me * sizeof(double));
        alive_edges = (int64_t *)malloc((size_t)me * sizeof(int64_t));
        edge_alive = (uint8_t *)malloc((size_t)me);
        prio = (double *)malloc((size_t)n * sizeof(double));
        live = (int64_t *)malloc((size_t)n * sizeof(int64_t));
        removal_order = (int64_t *)malloc((size_t)n * sizeof(int64_t));
        keep = (uint8_t *)malloc((size_t)n);
        if (!indptr || !span_hi || !flat_edge || !flat_other || !half_w
            || !full_w || !ew || !alive_edges || !edge_alive || !prio || !live
            || !removal_order || !keep)
            goto alloc_failed;
        if (scratch_alloc(&scratch, n))
            goto alloc_failed;
        scratch_ok = 1;

        /* ---- combined CSR: user spans then merchant spans, each span in
         * edge order (== numpy's stable argsort by endpoint). span_hi is the
         * fill cursor and ends as the span ends. ---- */
        memset(indptr, 0, (size_t)(n + 1) * sizeof(int64_t));
        for (int64_t i = 0; i < me; i++)
            indptr[mu[i] + 1]++;
        for (int64_t i = 0; i < me; i++)
            indptr[nu + mm[i] + 1]++;
        for (int64_t v = 0; v < n; v++)
            indptr[v + 1] += indptr[v];
        memcpy(span_hi, indptr, (size_t)n * sizeof(int64_t));
        for (int64_t i = 0; i < me; i++) {
            int64_t pos = span_hi[mu[i]]++;
            flat_edge[pos] = i;
            flat_other[pos] = nu + mm[i];
        }
        for (int64_t i = 0; i < me; i++) {
            int64_t pos = span_hi[nu + mm[i]]++;
            flat_edge[pos] = i;
            flat_other[pos] = mu[i];
        }

        /* ---- the residual graph: alive edges in edge order, live nodes
         * (alive span non-empty) in node order; node v's alive half-edges
         * are flat_*[indptr[v]:span_hi[v]] ---- */
        int64_t n_alive_edges = me;
        for (int64_t i = 0; i < me; i++) {
            alive_edges[i] = i;
            edge_alive[i] = 1;
        }
        int64_t n_live = 0;
        for (int64_t v = 0; v < n; v++)
            if (span_hi[v] > indptr[v])
                live[n_live++] = v;

        /* ---- the FDET block loop ---- */
        int64_t n_blocks = 0;
        double first_density = 0.0;
        int have_first = 0;
        int64_t row_bytes = (n + 7) / 8;

        for (int64_t b = 0; b < a->max_blocks; b++) {
            /* residual edge weights: table[degree] * member weight, in
             * edge order. A merchant's residual degree is its alive span
             * length; FROZEN keeps its full (input) span length. */
            for (int64_t r = 0; r < n_alive_edges; r++) {
                int64_t i = alive_edges[r];
                int64_t v = nu + mm[i];
                int64_t deg = (a->frozen_policy ? indptr[v + 1] : span_hi[v]) - indptr[v];
                double w = a->weight_table[deg] * mw[i];
                ew[r] = w;
                full_w[i] = w;
            }

            /* priority = priors.copy() (zeros) + two np.add.at passes */
            for (int64_t k = 0; k < n_live; k++)
                prio[live[k]] = 0.0;
            for (int64_t r = 0; r < n_alive_edges; r++)
                prio[mu[alive_edges[r]]] += ew[r];
            for (int64_t r = 0; r < n_alive_edges; r++)
                prio[nu + mm[alive_edges[r]]] += ew[r];

            /* float(priors.sum() + edge_weights.sum()) */
            double total = 0.0 + pairwise_sum(ew, n_alive_edges);

            int residual = 1;
            for (int64_t k = 0; k < n_live; k++) {
                int64_t v = live[k];
                if (!(prio[v] > 0.0))
                    residual = 0;
                for (int64_t j = indptr[v]; j < span_hi[v]; j++)
                    half_w[j] = full_w[flat_edge[j]];
            }
            /* guard: a live priority <= 0.0 may pop among the isolated
             * nodes, so the whole node set peels */
            int64_t n_peel = n_live;
            if (!residual) {
                for (int64_t v = 0; v < n; v++)
                    if (span_hi[v] == indptr[v])
                        prio[v] = 0.0;
                n_peel = n;
            }

            double best_density;
            int64_t best_removed;
            peel_core(
                n, n_peel, residual ? live : NULL, indptr, span_hi, flat_other,
                half_w, prio, total, removal_order, NULL, &best_density,
                &best_removed, &scratch);

            /* keep[] = nodes alive after best_removed pops. Only the live
             * ones matter unless some isolated nodes outlast the prefix
             * (or the whole node set peeled): then every node is marked. */
            int64_t n_iso = n - n_peel;
            int64_t iso_removed = best_removed < n_iso ? best_removed : n_iso;
            int all_nodes = n_peel == n || iso_removed < n_iso;
            if (all_nodes) {
                memset(keep, 1, (size_t)n);
                for (int64_t v = 0, k = 0; k < iso_removed; v++)
                    if (span_hi[v] == indptr[v]) {
                        keep[v] = 0; /* isolated nodes pop in node order */
                        k++;
                    }
            } else {
                for (int64_t k = 0; k < n_live; k++)
                    keep[live[k]] = 1;
            }
            for (int64_t i = 0; i < best_removed - iso_removed; i++)
                keep[removal_order[i]] = 0;

            /* the block's edges leave the alive list (a block that fails
             * min_block_edges ends the loop, so the residual is moot) */
            int64_t count = 0, r_next = 0;
            for (int64_t r = 0; r < n_alive_edges; r++) {
                int64_t i = alive_edges[r];
                if (keep[mu[i]] && keep[nu + mm[i]]) {
                    edge_alive[i] = 0;
                    count++;
                } else {
                    alive_edges[r_next++] = i;
                }
            }
            if (count < a->min_block_edges)
                break;

            uint8_t *row = a->block_masks + a->mask_off[m] + n_blocks * row_bytes;
            memset(row, 0, (size_t)row_bytes);
            int64_t n_marked = all_nodes ? n : n_live;
            for (int64_t k = 0; k < n_marked; k++) {
                int64_t v = all_nodes ? k : live[k];
                if (keep[v])
                    row[v >> 3] |= (uint8_t)(1u << (v & 7));
            }
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

            n_alive_edges = r_next;
            if (n_alive_edges == 0 || b + 1 == a->max_blocks)
                break;

            /* only kept nodes lost edges: shrink their alive spans in
             * place (span order kept), then drop nodes left isolated */
            int64_t n_live_next = 0;
            for (int64_t k = 0; k < n_live; k++) {
                int64_t v = live[k];
                if (keep[v]) {
                    int64_t hi = indptr[v];
                    for (int64_t j = indptr[v]; j < span_hi[v]; j++)
                        if (edge_alive[flat_edge[j]]) {
                            flat_edge[hi] = flat_edge[j];
                            flat_other[hi] = flat_other[j];
                            hi++;
                        }
                    span_hi[v] = hi;
                }
                if (span_hi[v] > indptr[v])
                    live[n_live_next++] = v;
            }
            n_live = n_live_next;
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
    free(span_hi);
    free(flat_edge);
    free(flat_other);
    free(half_w);
    free(full_w);
    free(ew);
    free(alive_edges);
    free(edge_alive);
    free(prio);
    free(live);
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

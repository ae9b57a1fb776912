/* Compiled kernels for the batched fixed-point decoders.
 *
 * Built lazily by repro.decode._cnative with the system C compiler and
 * loaded through ctypes; the "cnative" array backend dispatches here.
 * Every routine reproduces the integer arithmetic of the numpy batch
 * decoders exactly (integer ops are exact, so matching the operation
 * definitions gives bit-identical results by construction — asserted by
 * the backend-parity test suite).  Nothing here starts a thread: the
 * only parallelism layer above one kernel call is worker processes.
 *
 * The decode kernel is *segment-parallel*, like the paper's core: the
 * q = n_par / segments checks of each zigzag segment are visited in
 * order, and each step updates one check of every segment of every
 * live frame at once.  Check c = s*q + r (segment s, row r) keeps its
 * state at [r][s][frame] and info VN v at [v][frame], so one row is
 * segments x F contiguous elements.  On a DVB-S2 code with
 * segments == P, the edges of row r in slot t reach one VN group,
 * cyclically rotated: two contiguous runs of the [group][bit][frame]
 * VN state (the paper's shuffling network).  Any other segment count
 * decodes through the same run table, with more and shorter runs.
 *
 * Frames that converge or exhaust their budget leave the batch at
 * once and the survivors are compacted to a narrower row, so the cost
 * follows the live frame-iterations rather than the slowest frame.
 * Each pass lives in its own static function with restrict-qualified
 * pointers; without that the compiler gives up on the alias run-time
 * checks and leaves the row loops scalar.
 *
 * Two more tricks keep the hot loops narrow:
 *   - magnitude normalization floor(alpha*m) is an exact
 *     multiply-shift (the caller verifies (mult*m)>>8 reproduces
 *     the decoder's LUT for every representable magnitude), so there
 *     are no table gathers;
 *   - the VN pass reads an int8 mirror of the posteriors clipped to
 *     +-2*max_int (sign-preserving, and c2v is in [-mi, mi], so the
 *     clipped difference saturates to the same v2c — the numpy
 *     decoder's "narrow" path uses the identical argument).  This
 *     requires 3*max_int <= 127, which the caller enforces; wide
 *     int16 posteriors are still kept for the exact decision sums.
 *
 * Layout conventions (see repro.decode.batch_quantized):
 *   - info-edge storage is slot-major: edge (cn, t) of the dense
 *     n_par x width grid lives at index t*n_par + cn;
 *   - messages are int8 (formats up to 7 bits), VN accumulators int16.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Frames decoded together; wider batches are decoded in groups. */
#define GROUP 32

static inline int clip_i(int v, int mi)
{
    return v > mi ? mi : (v < -mi ? -mi : v);
}

static inline int abs_i(int v) { return v < 0 ? -v : v; }

/* ------------------------------------------------------------------ */
/* Scale, round half to even and saturate float LLRs to int8 in one
 * pass: out = clip(rint(x*gain*inv_lsb), +-mi), the arithmetic of
 * FixedPointFormat.quantize(x*gain) (inv_lsb is a power of two, so the
 * multiply equals its division by the LSB exactly).  Returns nonzero
 * when some x*gain is NaN or infinite; the caller raises.            */
int quantize_llrs(
    const double *x, int64_t n, double gain, double inv_lsb, int64_t mi,
    int8_t *out)
{
    const double hi = (double)mi;
    int bad = 0;
    for (int64_t i = 0; i < n; i++) {
        double v = x[i] * gain;
        bad |= !(v - v == 0.0);
        double s = rint(v * inv_lsb);
        s = s > hi ? hi : s;
        s = s >= -hi ? s : -hi;
        out[i] = (int8_t)s;
    }
    return bad;
}

/* ------------------------------------------------------------------ */
/* Fused per-segment min1/min2/argmin for the flooding check phase.
 *
 * One sweep per segment replaces the two np.minimum.reduceat passes:
 * min1 is the segment minimum, argmin the *global sorted position* of
 * its first occurrence, and min2 the minimum of the remaining entries
 * (duplicates of min1 included), seeded at INT8_MAX exactly like the
 * numpy path's in-place mask value.                                   */
void segment_min_scan(
    const int8_t *mags,     /* (m, n_edges) CN-sorted magnitudes */
    int64_t m, int64_t n_edges,
    const int64_t *starts,  /* (n_segs,) segment start offsets */
    int64_t n_segs,
    int8_t *min1,           /* (m, n_segs) out */
    int8_t *min2,           /* (m, n_segs) out */
    int64_t *argmin)        /* (m, n_segs) out, global positions */
{
    for (int64_t f = 0; f < m; f++) {
        const int8_t *row = mags + f * n_edges;
        int8_t *m1 = min1 + f * n_segs;
        int8_t *m2 = min2 + f * n_segs;
        int64_t *am = argmin + f * n_segs;
        for (int64_t s = 0; s < n_segs; s++) {
            int64_t lo = starts[s];
            int64_t hi = (s + 1 < n_segs) ? starts[s + 1] : n_edges;
            int a = row[lo], b = INT8_MAX;
            int64_t pos = lo;
            for (int64_t e = lo + 1; e < hi; e++) {
                int v = row[e];
                if (v < a) { b = a; a = v; pos = e; }
                else if (v < b) { b = v; }
            }
            m1[s] = (int8_t)a;
            m2[s] = (int8_t)b;
            am[s] = pos;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Standalone t-major forward scan (numpy-loop trace path).
 *
 * Matches BatchQuantizedZigzagDecoder._forward_scan: n1 is the already
 * normalized first minimum, outputs are f, lut[|a|] and (a < 0) in
 * linear n_par order.                                                 */
void zigzag_forward_scan(
    const int8_t *n1,          /* (m, n_par) lut[min1] */
    const uint8_t *parity_neg, /* (m, n_par) */
    const int8_t *ch_pn,       /* (m, n_par) */
    const int8_t *f_old,       /* (m, n_par) */
    int64_t m, int64_t n_par, int64_t seg, int64_t mi,
    const int8_t *lut,         /* (mi+1,) */
    int8_t *f,                 /* (m, n_par) out */
    int8_t *a_norm,            /* (m, n_par) out */
    uint8_t *a_neg)            /* (m, n_par) out */
{
    const int64_t q = n_par / seg;
    for (int64_t fr = 0; fr < m; fr++) {
        const int8_t *n1r = n1 + fr * n_par;
        const uint8_t *pr = parity_neg + fr * n_par;
        const int8_t *chr_ = ch_pn + fr * n_par;
        const int8_t *for_ = f_old + fr * n_par;
        int8_t *fo = f + fr * n_par;
        int8_t *an = a_norm + fr * n_par;
        uint8_t *ag = a_neg + fr * n_par;
        for (int64_t s = 0; s < seg; s++) {
            int64_t base = s * q;
            int a = (s == 0)
                ? (int)mi
                : clip_i((int)chr_[base - 1] + (int)for_[base - 1],
                         (int)mi);
            for (int64_t j = 0; j < q; j++) {
                int64_t i = base + j;
                int anv = lut[abs_i(a)];
                int ang = a < 0;
                an[i] = (int8_t)anv;
                ag[i] = (uint8_t)ang;
                int fm = n1r[i] < anv ? n1r[i] : anv;
                int fv = (ang ^ pr[i]) ? -fm : fm;
                fo[i] = (int8_t)fv;
                a = clip_i((int)chr_[i] + fv, (int)mi);
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Segment-parallel zigzag decode.
 *
 * A "row" is segments x F elements; F is the live frame count, frame
 * minor.  Check state is [r][s][f]; the c2v messages of slot t are
 * [t][r][s][f], so each slot's edge rows line up with the check rows.
 * The run table maps edge row (t, r) (index t*q + r) to the VN state:
 * run i covers segments [seg_i, seg_i + len_i) and reads VNs
 * [vn_i, vn_i + len_i), i.e. len_i*F contiguous elements on both sides.
 *
 * The passes walk the check state in blocks of at most BLOCK
 * elements: several whole rows when rows are short (few segments, few
 * live frames), else a range of segments of one row.  The VN side of
 * a block is gathered run by run into one contiguous buffer, so every
 * block is one long vector loop and its state stays in L1.           */
#define BLOCK 4096

typedef struct {
    int64_t k, n_par, n, width, seg, q;
    const int32_t *row_ptr;  /* (width*q + 1,) run range of each row */
    const int32_t *run_seg;  /* first segment of each run */
    const int32_t *run_vn;   /* first VN of each run */
    const int32_t *run_len;  /* segments in each run */
    int8_t mi;
    int16_t nm;              /* floor(alpha*m) == (nm*m) >> 8 */
} code_plan;

typedef struct {
    int8_t *chi;     /* [v][f] channel info LLRs */
    int16_t *posts;  /* [v][f] wide info posteriors (per iteration) */
    int8_t *posts8;  /* [v][f] posteriors clipped to +-2*mi */
    int8_t *c2v;     /* [t][r][s][f] check-to-VN messages */
    int8_t *chp;     /* [r][s][f] channel parity LLRs */
    int8_t *f;       /* forward messages */
    int8_t *b;       /* backward messages */
    int8_t *bn;      /* backward message of the next check, b[c+1] */
    uint8_t *pb;     /* parity-bit decisions */
    int8_t *min1;    /* pass A outputs: min1, min2, argmin slot, */
    int8_t *min2;    /* and check parity sign */
    int8_t *am;
    uint8_t *par;
    int8_t *a;       /* one row: forward chain value entering it */
    /* One block each: */
    int8_t *g;       /* posts8 gathered in edge-row order */
    uint8_t *sy;     /* syndrome of the block's checks */
    uint8_t *acc;    /* OR of all blocks' syndromes */
    int8_t *n1;      /* normalized min1 */
    int8_t *cl;      /* normalized |c_in| */
    uint8_t *cneg;   /* c_in < 0 */
    int8_t *anv;     /* normalized |a| */
    uint8_t *ang;    /* a < 0 */
    int8_t *lo1;     /* the two candidate output magnitudes */
    int8_t *lo2;
    uint8_t *chain;  /* output sign before the v2c sign */
} workspace;

/* Carve the workspace regions out of base (or just size them when w
 * is NULL): per-check and per-VN state for GROUP frames, then the
 * row and block scratch. */
static int64_t ws_layout(
    workspace *w, char *base, int64_t k, int64_t n_par, int64_t e_in,
    int64_t seg)
{
    const int64_t row = seg * GROUP, blk = BLOCK;
    int64_t off = 0;
#define TAKE(field, type, count)                                      \
    if (w) w->field = (type *)(base + off);                           \
    off += ((int64_t)(count) * (int64_t)sizeof(type) + 63) & ~63;
    TAKE(chi, int8_t, k * GROUP)
    TAKE(posts, int16_t, k * GROUP)
    TAKE(posts8, int8_t, k * GROUP)
    TAKE(c2v, int8_t, e_in * GROUP)
    TAKE(chp, int8_t, n_par * GROUP)
    TAKE(f, int8_t, n_par * GROUP)
    TAKE(b, int8_t, n_par * GROUP)
    TAKE(bn, int8_t, n_par * GROUP)
    TAKE(pb, uint8_t, n_par * GROUP)
    TAKE(min1, int8_t, n_par * GROUP)
    TAKE(min2, int8_t, n_par * GROUP)
    TAKE(am, int8_t, n_par * GROUP)
    TAKE(par, uint8_t, n_par * GROUP)
    TAKE(a, int8_t, row)
    TAKE(g, int8_t, blk)
    TAKE(sy, uint8_t, blk)
    TAKE(acc, uint8_t, blk)
    TAKE(n1, int8_t, blk)
    TAKE(cl, int8_t, blk)
    TAKE(cneg, uint8_t, blk)
    TAKE(anv, int8_t, blk)
    TAKE(ang, uint8_t, blk)
    TAKE(lo1, int8_t, blk)
    TAKE(lo2, int8_t, blk)
    TAKE(chain, uint8_t, blk)
#undef TAKE
    return off;
}

/* Bytes of workspace zigzag_decode needs for this code. */
int64_t zigzag_workspace_bytes(
    int64_t k, int64_t n_par, int64_t width, int64_t seg)
{
    return ws_layout(NULL, NULL, k, n_par, width * n_par, seg);
}

/* Byte-lane helpers.  Every intermediate of the decode fits int8
 * (|posts8 - c2v| <= 3*mi <= 127 by the caller contract, chain sums
 * reach 3*mi at most), and keeping the locals int8 lets the compiler
 * run the row loops at full byte-lane width. */
static inline int8_t clip8(int8_t v, int8_t mi)
{
    const int8_t lo = (int8_t)-mi;
    v = v > mi ? mi : v;
    return v < lo ? lo : v;
}

static inline int8_t abs8(int8_t v) { return v < 0 ? (int8_t)-v : v; }

/* floor(alpha*m) == (nm*m) >> NORM_SHIFT for m in 0..mi, and nm*mi
 * fits int16 (caller contract).  A constant shift keeps the multiply
 * in 16-bit lanes. */
#define NORM_SHIFT 8

static inline int8_t norm8(int8_t m, int16_t nm)
{
    return (int8_t)((int16_t)(nm * m) >> NORM_SHIFT);
}

/* Block shape: R rows of SC segments each (SC < segments only when
 * R == 1), so a block is the contiguous run of R*SC*F elements at
 * r0*rowp + s0*F. */
static void block_shape(const code_plan *cp, int F, int64_t *R,
                        int64_t *SC)
{
    const int64_t rowp = cp->seg * F;
    if (rowp >= BLOCK) {
        *R = 1;
        *SC = BLOCK / F;
    } else {
        *R = BLOCK / rowp < cp->q ? BLOCK / rowp : cp->q;
        *SC = cp->seg;
    }
}

/* The shuffle: posts8 of edge rows (t, r0..r1), segments s0..s1, into
 * g, run by run. */
static void gather(const code_plan *cp, const int8_t *p8, int F,
                   int64_t t, int64_t r0, int64_t r1, int64_t s0,
                   int64_t s1, int8_t *g)
{
    for (int64_t r = r0; r < r1; r++) {
        const int64_t row = t * cp->q + r;
        int8_t *gr = g + (r - r0) * (s1 - s0) * F;
        for (int32_t i = cp->row_ptr[row]; i < cp->row_ptr[row + 1]; i++) {
            const int64_t a = cp->run_seg[i];
            const int64_t lo = a > s0 ? a : s0;
            const int64_t hi = a + cp->run_len[i] < s1
                ? a + cp->run_len[i] : s1;
            if (lo < hi)
                memcpy(gr + (lo - s0) * F,
                       p8 + (cp->run_vn[i] + lo - a) * F,
                       (size_t)((hi - lo) * F));
        }
    }
}

static void add_run(int16_t *restrict posts, const int8_t *restrict o,
                    int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        posts[i] = (int16_t)(posts[i] + o[i]);
}

/* The inverse shuffle: add o (a block of new c2v, laid out as gather()
 * fills g) to the wide posteriors of its VNs. */
static void scatter_add(const code_plan *cp, int16_t *posts, int F,
                        int64_t t, int64_t r0, int64_t r1, int64_t s0,
                        int64_t s1, const int8_t *o)
{
    for (int64_t r = r0; r < r1; r++) {
        const int64_t row = t * cp->q + r;
        const int8_t *orow = o + (r - r0) * (s1 - s0) * F;
        for (int32_t i = cp->row_ptr[row]; i < cp->row_ptr[row + 1]; i++) {
            const int64_t a = cp->run_seg[i];
            const int64_t lo = a > s0 ? a : s0;
            const int64_t hi = a + cp->run_len[i] < s1
                ? a + cp->run_len[i] : s1;
            if (lo < hi)
                add_run(posts + (cp->run_vn[i] + lo - a) * F,
                        orow + (lo - s0) * F, (hi - lo) * F);
        }
    }
}

/* Pass A, slot t=0: the VN update v2c = clip(posts - c2v, +-mi) seeds
 * the min scan and the check parity sign, and the posterior sign joins
 * the IRA syndrome of the previous iteration's decision.  v2c itself
 * is not stored — the output pass recomputes its sign from the same
 * inputs. */
static void vn_first(
    const int8_t *restrict g,
    const int8_t *restrict cv,
    int8_t *restrict m1,
    int8_t *restrict m2,
    int8_t *restrict am,
    uint8_t *restrict par,
    uint8_t *restrict sy,
    int64_t n, int8_t mi)
{
    for (int64_t i = 0; i < n; i++) {
        int8_t p = g[i];
        sy[i] ^= (uint8_t)(p < 0);
        int8_t v = clip8((int8_t)(p - cv[i]), mi);
        m1[i] = abs8(v);
        m2[i] = mi;
        am[i] = 0;
        par[i] = v < 0;
    }
}

/* Pass A, slots t>=1: online min1/min2/argmin scan (strict-less,
 * first occurrence — the numpy batch ordering). */
static void vn_slot(
    const int8_t *restrict g,
    const int8_t *restrict cv,
    int8_t *restrict m1,
    int8_t *restrict m2,
    int8_t *restrict am,
    uint8_t *restrict par,
    uint8_t *restrict sy,
    int64_t n, int8_t mi, int8_t t)
{
    for (int64_t i = 0; i < n; i++) {
        int8_t p = g[i];
        sy[i] ^= (uint8_t)(p < 0);
        int8_t v = clip8((int8_t)(p - cv[i]), mi);
        par[i] ^= (uint8_t)(v < 0);
        int8_t mag = abs8(v);
        int8_t a = m1[i], b = m2[i];
        int lt = mag < a;
        int8_t mm = b < mag ? b : mag;
        m2[i] = lt ? a : mm;
        m1[i] = lt ? mag : a;
        am[i] = lt ? t : am[i];
    }
}

static void xor_rows(
    uint8_t *restrict out, const uint8_t *restrict a,
    const uint8_t *restrict b, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] ^ b[i];
}

static void or_rows(uint8_t *restrict acc, const uint8_t *restrict sy,
                    int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        acc[i] |= sy[i];
}

/* Seed sy with the IRA chain term of checks off..off+n: parity bit
 * c-1 of check c is in the previous row, or for row 0 in the last row
 * one segment back (none for check 0). */
static void syndrome_seed(const uint8_t *pb, int64_t q, int64_t rowp,
                          int F, int64_t off, int64_t n, uint8_t *sy)
{
    const int64_t end = off + n;
    int64_t e = off;
    if (e < F) {
        const int64_t m = (end < F ? end : F) - e;
        memcpy(sy, pb + e, (size_t)m);
        e += m;
    }
    if (e < end && e < rowp) {
        const int64_t m = (end < rowp ? end : rowp) - e;
        xor_rows(sy + (e - off), pb + e, pb + (q - 1) * rowp + e - F, m);
        e += m;
    }
    if (e < end)
        xor_rows(sy + (e - off), pb + e, pb + e - rowp, end - e);
}

/* Pass A over every check: min scan, check parity and the syndrome of
 * the previous decision; returns per-frame "unsatisfied" flags. */
static void vn_pass(const code_plan *cp, workspace *w, int F,
                    uint8_t *bad)
{
    const int64_t q = cp->q, S = cp->seg, rowp = S * F;
    int64_t R, SC;
    block_shape(cp, F, &R, &SC);
    memset(w->acc, 0, BLOCK);
    for (int64_t r0 = 0; r0 < q; r0 += R) {
        const int64_t r1 = r0 + R < q ? r0 + R : q;
        for (int64_t s0 = 0; s0 < S; s0 += SC) {
            const int64_t s1 = s0 + SC < S ? s0 + SC : S;
            const int64_t off = r0 * rowp + s0 * F;
            const int64_t n = (r1 - r0) * (s1 - s0) * F;
            syndrome_seed(w->pb, q, rowp, F, off, n, w->sy);
            for (int64_t t = 0; t < cp->width; t++) {
                const int8_t *cv = w->c2v + t * cp->n_par * F + off;
                gather(cp, w->posts8, F, t, r0, r1, s0, s1, w->g);
                if (t == 0)
                    vn_first(w->g, cv, w->min1 + off, w->min2 + off,
                             w->am + off, w->par + off, w->sy, n, cp->mi);
                else
                    vn_slot(w->g, cv, w->min1 + off, w->min2 + off,
                            w->am + off, w->par + off, w->sy, n, cp->mi,
                            (int8_t)t);
            }
            or_rows(w->acc, w->sy, n);
        }
    }
    /* Blocks start on frame boundaries: element i is lane i % F. */
    for (int j = 0; j < F; j++) bad[j] = 0;
    for (int64_t i = 0; i + F <= BLOCK; i += F)
        for (int j = 0; j < F; j++)
            bad[j] |= w->acc[i + j];
}

/* Check update, the parts that do not wait for the forward chain:
 * c_in = clip(ch_pn + b[c+1]), the normalized magnitudes and the new
 * backward message. */
static void check_pre(
    const int8_t *restrict chp,
    const int8_t *restrict bn,
    const int8_t *restrict m1,
    const uint8_t *restrict par,
    int8_t *restrict n1,
    int8_t *restrict cl,
    uint8_t *restrict cneg,
    int8_t *restrict b,
    int64_t n, int8_t mi, int16_t nm)
{
    for (int64_t i = 0; i < n; i++) {
        int8_t ci = clip8((int8_t)(chp[i] + bn[i]), mi);
        uint8_t cn = ci < 0;
        int8_t c = norm8(abs8(ci), nm);
        int8_t m = norm8(m1[i], nm);
        n1[i] = m;
        cl[i] = c;
        cneg[i] = cn;
        int8_t bm = m < c ? m : c;
        b[i] = (par[i] ^ cn) ? (int8_t)-bm : bm;
    }
}

/* One forward-chain step: serial along r, so a carries row to row. */
static void chain_step(
    const int8_t *restrict n1,
    const uint8_t *restrict par,
    const int8_t *restrict chp,
    int8_t *restrict a,
    int8_t *restrict anv,
    uint8_t *restrict ang,
    int8_t *restrict f,
    int64_t n, int8_t mi, int16_t nm)
{
    for (int64_t i = 0; i < n; i++) {
        int8_t av = a[i];
        uint8_t neg = av < 0;
        int8_t an = norm8(abs8(av), nm);
        anv[i] = an;
        ang[i] = neg;
        int8_t fm = n1[i] < an ? n1[i] : an;
        int8_t fv = (neg ^ par[i]) ? (int8_t)-fm : fm;
        f[i] = fv;
        a[i] = clip8((int8_t)(chp[i] + fv), mi);
    }
}

/* The output magnitudes lo1/lo2 and the output sign before the v2c
 * sign. */
static void check_post(
    const int8_t *restrict n1,
    const int8_t *restrict cl,
    const int8_t *restrict anv,
    const int8_t *restrict m2,
    const uint8_t *restrict par,
    const uint8_t *restrict cneg,
    const uint8_t *restrict ang,
    int8_t *restrict lo1,
    int8_t *restrict lo2,
    uint8_t *restrict chain,
    int64_t n, int16_t nm)
{
    for (int64_t i = 0; i < n; i++) {
        int8_t cm = anv[i] < cl[i] ? anv[i] : cl[i];
        lo1[i] = n1[i] < cm ? n1[i] : cm;
        int8_t lm = norm8(m2[i], nm);
        lo2[i] = lm < cm ? lm : cm;
        chain[i] = par[i] ^ ang[i] ^ cneg[i];
    }
}

/* Pass C, one slot: output blend.  The v2c sign is recomputed from the
 * unchanged posts8/c2v instead of being stored by pass A. */
static void out_slot(
    const int8_t *restrict g,
    int8_t *restrict cv,
    const int8_t *restrict lo1,
    const int8_t *restrict lo2,
    const int8_t *restrict am,
    const uint8_t *restrict chain,
    int64_t n, int8_t t)
{
    for (int64_t i = 0; i < n; i++) {
        uint8_t vneg = g[i] < cv[i];  /* sign of posts - c2v */
        int8_t bmag = am[i] == t ? lo2[i] : lo1[i];
        cv[i] = (chain[i] ^ vneg) ? (int8_t)-bmag : bmag;
    }
}

static void clip_add(int8_t *restrict out, const int8_t *restrict x,
                     const int8_t *restrict y, int64_t n, int8_t mi)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = clip8((int8_t)(x[i] + y[i]), mi);
}

/* Refresh the int8 posterior mirror: clip(posts, +-2*mi). */
static void clip_posts(const int16_t *restrict posts,
                       int8_t *restrict posts8, int64_t n, int16_t clip)
{
    const int16_t lo = (int16_t)-clip;
    for (int64_t i = 0; i < n; i++) {
        int16_t p = posts[i];
        p = p > clip ? clip : p;
        posts8[i] = (int8_t)(p < lo ? lo : p);
    }
}

/* Parity posteriors ch_pn + f + b[c+1], decision signs into pb. */
static void parity_decisions(
    const int8_t *restrict chp, const int8_t *restrict f,
    const int8_t *restrict bn, uint8_t *restrict pb, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        pb[i] = (int8_t)(chp[i] + f[i] + bn[i]) < 0;
}

static void widen(int16_t *restrict out, const int8_t *restrict x,
                  int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = x[i];
}

/* Check update, output pass and decisions for every live frame. */
static void check_pass(const code_plan *cp, workspace *w, int F)
{
    const int64_t q = cp->q, S = cp->seg, rowp = S * F;
    const int8_t mi = cp->mi;
    const int16_t nm = cp->nm;
    int64_t R, SC;
    block_shape(cp, F, &R, &SC);
    widen(w->posts, w->chi, cp->k * F);
    /* Forward chain entry: segment 0 starts at +mi, segment s at the
     * previous iteration's output of check s*q - 1. */
    for (int j = 0; j < F; j++) w->a[j] = mi;
    clip_add(w->a + F, w->chp + (q - 1) * rowp, w->f + (q - 1) * rowp,
             rowp - F, mi);
    for (int64_t r0 = 0; r0 < q; r0 += R) {
        const int64_t r1 = r0 + R < q ? r0 + R : q;
        for (int64_t s0 = 0; s0 < S; s0 += SC) {
            const int64_t s1 = s0 + SC < S ? s0 + SC : S;
            const int64_t off = r0 * rowp + s0 * F;
            const int64_t len = (s1 - s0) * F, n = (r1 - r0) * len;
            check_pre(w->chp + off, w->bn + off, w->min1 + off,
                      w->par + off, w->n1, w->cl, w->cneg, w->b + off, n,
                      mi, nm);
            for (int64_t i = 0; i < n; i += len)
                chain_step(w->n1 + i, w->par + off + i, w->chp + off + i,
                           w->a + s0 * F, w->anv + i, w->ang + i,
                           w->f + off + i, len, mi, nm);
            check_post(w->n1, w->cl, w->anv, w->min2 + off, w->par + off,
                       w->cneg, w->ang, w->lo1, w->lo2, w->chain, n, nm);
            for (int64_t t = 0; t < cp->width; t++) {
                int8_t *cv = w->c2v + t * cp->n_par * F + off;
                gather(cp, w->posts8, F, t, r0, r1, s0, s1, w->g);
                out_slot(w->g, cv, w->lo1, w->lo2, w->am + off, w->chain,
                         n, (int8_t)t);
                scatter_add(cp, w->posts, F, t, r0, r1, s0, s1, cv);
            }
        }
    }
    /* b[c+1]: the next row, except that check s*q + q-1 is followed by
     * row 0 of segment s+1, and the last check of the chain by none
     * (its bn keeps the zero it was loaded with). */
    memcpy(w->bn, w->b + rowp, (size_t)((q - 1) * rowp));
    memcpy(w->bn + (q - 1) * rowp, w->b + F, (size_t)(rowp - F));
    clip_posts(w->posts, w->posts8, cp->k * F, (int16_t)(2 * mi));
    parity_decisions(w->chp, w->f, w->bn, w->pb, cp->n_par * F);
}

/* Keep lanes keep[0..fp) of an [element][F] array as an [element][fp]
 * array, in place.  Blocks of BOUNCE elements are copied aside first,
 * so a whole row can be permuted and stored at full vector width: the
 * bytes a store spills past its row are rewritten by the next row
 * before anything reads them, and never reach unread input (the next
 * block starts at least BOUNCE - 1 bytes further on, as fp < F). */
#define BOUNCE 64
#if defined(__GNUC__) && !defined(__clang__)
typedef uint8_t row_vec __attribute__((vector_size(GROUP)));
#endif

static void compact8(uint8_t *x, int64_t n_el, int F, int fp,
                     const int *keep)
{
    uint8_t tmp[BOUNCE * GROUP + GROUP];
    for (int64_t e0 = 0; e0 < n_el; e0 += BOUNCE) {
        const int64_t nb = n_el - e0 < BOUNCE ? n_el - e0 : BOUNCE;
        memcpy(tmp, x + e0 * F, (size_t)(nb * F));
        uint8_t *dst = x + e0 * fp;
        int64_t e = 0;
#if defined(__GNUC__) && !defined(__clang__)
        row_vec mask = {0};
        for (int j = 0; j < fp; j++) mask[j] = (uint8_t)keep[j];
        /* The last rows store exactly, so nothing lands past the
         * compacted array. */
        const int64_t wide = e0 + nb < n_el ? nb : nb - GROUP;
        for (; e < wide; e++) {
            row_vec v;
            memcpy(&v, tmp + e * F, GROUP);
            v = __builtin_shuffle(v, mask);
            memcpy(dst + e * fp, &v, GROUP);
        }
#endif
        for (; e < nb; e++)
            for (int j = 0; j < fp; j++)
                dst[e * fp + j] = tmp[e * F + keep[j]];
    }
}

static void compact(const code_plan *cp, workspace *w, int F, int fp,
                    const int *keep)
{
    const int64_t np = cp->n_par;
    uint8_t *arrays[] = {
        (uint8_t *)w->chi, (uint8_t *)w->posts8, (uint8_t *)w->c2v,
        (uint8_t *)w->chp, (uint8_t *)w->f, (uint8_t *)w->bn, w->pb,
        (uint8_t *)w->min1, (uint8_t *)w->min2, (uint8_t *)w->am, w->par,
    };
    const int64_t sizes[] = {
        cp->k, cp->k, cp->width * np, np, np, np, np, np, np, np, np,
    };
    for (size_t i = 0; i < sizeof sizes / sizeof sizes[0]; i++)
        compact8(arrays[i], sizes[i], F, fp, keep);
}

/* Moving frames between their (frames, n) rows and the [e][F] lanes
 * is a transpose; both directions walk the elements in blocks of
 * TILE so the lane side of a block stays in L1. */
#define TILE 256
#define TILE_ROWS 8

/* Load lanes 0..F-1 from the channel rows of frame[0..F-1]. */
static void load_lanes(const code_plan *cp, workspace *w, int F,
                       const int8_t *ch, const int64_t *frame)
{
    const int64_t k = cp->k, n = cp->n, S = cp->seg, q = cp->q;
    const int8_t clip = (int8_t)(2 * cp->mi);
    for (int64_t v0 = 0; v0 < k; v0 += TILE) {
        const int64_t v1 = v0 + TILE < k ? v0 + TILE : k;
        for (int j = 0; j < F; j++) {
            const int8_t *row = ch + frame[j] * n;
            for (int64_t v = v0; v < v1; v++) {
                w->chi[v * F + j] = row[v];
                w->posts8[v * F + j] = clip8(row[v], clip);
            }
        }
    }
    for (int64_t r0 = 0; r0 < q; r0 += TILE_ROWS) {
        const int64_t r1 = r0 + TILE_ROWS < q ? r0 + TILE_ROWS : q;
        for (int j = 0; j < F; j++) {
            const int8_t *row = ch + frame[j] * n + k;
            for (int64_t s = 0; s < S; s++)
                for (int64_t r = r0; r < r1; r++) {
                    const int8_t c = row[s * q + r];
                    w->chp[(r * S + s) * F + j] = c;
                    w->pb[(r * S + s) * F + j] = c < 0;
                }
        }
    }
}

/* Copy the decisions of lanes lane[0..nl) out to their bits rows. */
static void extract_lanes(const code_plan *cp, const workspace *w, int F,
                          const int *lane, int nl, const int64_t *frame,
                          uint8_t *bits)
{
    const int64_t k = cp->k, n = cp->n, S = cp->seg, q = cp->q;
    for (int64_t v0 = 0; v0 < k; v0 += TILE) {
        const int64_t v1 = v0 + TILE < k ? v0 + TILE : k;
        for (int i = 0; i < nl; i++) {
            uint8_t *row = bits + frame[lane[i]] * n;
            for (int64_t v = v0; v < v1; v++)
                row[v] = w->posts8[v * F + lane[i]] < 0;
        }
    }
    for (int64_t r0 = 0; r0 < q; r0 += TILE_ROWS) {
        const int64_t r1 = r0 + TILE_ROWS < q ? r0 + TILE_ROWS : q;
        for (int i = 0; i < nl; i++) {
            uint8_t *row = bits + frame[lane[i]] * n + k;
            for (int64_t s = 0; s < S; s++)
                for (int64_t r = r0; r < r1; r++)
                    row[s * q + r] = w->pb[(r * S + s) * F + lane[i]];
        }
    }
}

/* Decode frames g0 .. g0+F-1 to completion. */
static void decode_group(
    const code_plan *cp, workspace *w, const int8_t *ch, int64_t g0,
    int F, const int64_t *budgets, int early_stop, uint8_t *bits,
    uint8_t *converged, int64_t *iterations)
{
    int64_t frame[GROUP], bud[GROUP];
    int keep[GROUP], out[GROUP];
    uint8_t bad[GROUP];

    for (int j = 0; j < F; j++) {
        frame[j] = g0 + j;
        bud[j] = budgets[g0 + j];
    }
    load_lanes(cp, w, F, ch, frame);
    memset(w->c2v, 0, (size_t)(cp->width * cp->n_par * F));
    memset(w->f, 0, (size_t)(cp->n_par * F));
    memset(w->bn, 0, (size_t)(cp->n_par * F));

    for (int64_t it = 1;; it++) {
        /* Pass A: VN phase fused with the check min scan and the IRA
         * syndrome of the *previous* decision. */
        vn_pass(cp, w, F, bad);
        /* Converged frames leave first (the golden model's in-loop
         * check), then exhausted budgets; both have run it-1
         * iterations. */
        int fp = 0, nout = 0;
        for (int j = 0; j < F; j++) {
            const int ok = early_stop && !bad[j];
            if (ok || it > bud[j]) {
                iterations[frame[j]] = it - 1;
                converged[frame[j]] = (uint8_t)ok;
                out[nout++] = j;
            } else {
                keep[fp++] = j;
            }
        }
        if (nout) extract_lanes(cp, w, F, out, nout, frame, bits);
        if (!fp) return;
        if (fp < F) {
            compact(cp, w, F, fp, keep);
            for (int j = 0; j < fp; j++) {
                frame[j] = frame[keep[j]];
                bud[j] = bud[keep[j]];
            }
            F = fp;
        }
        check_pass(cp, w, F);
    }
}

/* ------------------------------------------------------------------ */
/* Whole-batch fused zigzag decode, in groups of up to GROUP frames.
 * Mirrors QuantizedZigzagDecoder.decode_quantized exactly:
 *
 *   v2c      = clip(posts_prev - c2v, +-mi)          (VN phase)
 *   min scan = strict-less first-occurrence argmin, min2 seeded at mi
 *   c_in     = clip(ch_pn + b_old[1:], +-mi)
 *   forward  = per-segment serial chain, f = sign * min(n1, norm|a|)
 *   outputs  = slot blends of lo1/lo2 with chain sign
 *   decision = wide VN sums (ch_in + sum of new c2v)
 *   syndrome = IRA chain, fused into the next iteration's VN gather
 *
 * Caller contract: 3*mi <= 127 (int8 narrow-VN condition), every
 * channel value within +-mi (as the quantizer produces),
 * (mult*m)>>8 == floor(alpha*m) with mult*mi < 2^15 for m in 0..mi,
 * and ws holds zigzag_workspace_bytes() bytes.
 */
void zigzag_decode(
    const int8_t *ch,        /* (frames, k + n_par) quantized LLRs */
    int64_t frames, int64_t k, int64_t n_par,
    int64_t width, int64_t seg,
    const int32_t *row_ptr, const int32_t *run_seg,
    const int32_t *run_vn, const int32_t *run_len,
    int64_t mi, int64_t mult, /* floor(alpha*m) == (mult*m) >> 8 */
    const int64_t *budgets,  /* (frames,) per-frame iteration budgets */
    int early_stop,
    void *ws,
    uint8_t *bits,           /* (frames, k + n_par) out */
    uint8_t *converged,      /* (frames,) out */
    int64_t *iterations)     /* (frames,) out */
{
    const code_plan cp = {
        k, n_par, k + n_par, width, seg, n_par / seg,
        row_ptr, run_seg, run_vn, run_len,
        (int8_t)mi, (int16_t)mult,
    };
    workspace w;
    ws_layout(&w, (char *)ws, k, n_par, width * n_par, seg);
    for (int64_t g0 = 0; g0 < frames; g0 += GROUP) {
        const int F = (int)(frames - g0 < GROUP ? frames - g0 : GROUP);
        decode_group(&cp, &w, ch, g0, F, budgets, early_stop, bits,
                     converged, iterations);
    }
}

/* Manifold conjugate-gradient descent on the product of unit circles.

   A port of irsopt._kernels.rmcg_core_numpy to C99 with GNU vector types
   (gcc, clang), step for step: same products, preconditioner, direction
   rule, first step, line search, stopping test, tangency check, history
   padding and flags.

   The direction is preconditioned by the diagonal of the Riemannian
   Hessian, h_i = 2 Q_ii - rad_i, with rad_i = Re(conj(g_i) v_i) the
   radial part the gradient projection computes anyway and Q_ii (the
   squared column norms of F^H) computed once per call: pg = rgrad / h,
   with h floored at precond_floor * max_i h_i, or pg = rgrad where some
   h_i is not finite or max_i h_i <= 0.
   The direction is -pg + beta T(d), beta the Polak-Ribiere value
   <rgrad_new, pg_new - T(pg)> / <rgrad, pg> capped at the Fletcher-Reeves
   value <rgrad_new, pg_new> / <rgrad, pg> and floored at 0, and a restart
   takes -pg with slope -<rgrad, pg>.
   irsopt._kernels builds this file into a shared library on first import
   and calls its two entry points through ctypes: rmcg_run, this descent,
   and beamformer_run, the beamformer step of irsopt.beamformer for one
   draw or a stack of them (a port of solve_beamforming_numpy; its section
   is the last in this file).

   Complex vectors are numpy complex128 buffers, interleaved (re, im)
   doubles. The quadratic is Q = F F^H (neither F nor Q is stored). The
   form hands over two operands, A^H (ka x n) and B^H (kb x n), row-major,
   and F^H (r = ka kb rows) is their Khatri-Rao product: row k kb + j of
   F^H is A^H[k] o B^H[j], entry by entry. F^H itself is never formed.
   Once per call the kernel copies the two operands into its work space,
   planar (real parts, then imaginary parts) and zero-padded to whole
   vectors, and takes Q_ii = (sum_k |a_ki|^2) (sum_j |b_ji|^2) in the same
   pass: O((ka + kb) n). Each product then runs on the operands:
   t_kj = sum_i a_ki b_ji x_i over tiles of rows of both, whose sums stay
   in registers (fh_product), and
   (F t)_i = sum_k conj(a_ki) sum_j conj(b_ji) t_kj (finish), both at
   O(ka kb n) but reading only (ka + kb) n entries where F^H has ka kb n.
   Their sums run in another order than numpy's, so the kernel agrees with
   QuadraticForm's products (fh_product, f_product) to rounding.

   The line search needs only objective values, f(x) = ||t||^2 +
   2 Re(z^H x) with t = F^H x: a trial point costs the one product F^H x,
   and F t, which the gradient needs, is formed (a pass over the
   operands) for the accepted point alone. An iteration with k trial points
   thus does k + 2 such products: F^H d for the curvature of the first
   step, F^H x for each trial point and F t for the accepted one, where
   scoring by F (F^H x) would take 2 k + 1. Every objective value of a run comes from
   evaluate(), so all comparisons see the same rounding.

   The descent stops at the first iterate whose Riemannian gradient norm
   is at most max(grad_tol, rel_tol * ||grad_0||), grad_0 being the
   gradient at v0; a NaN or infinite ||grad_0|| keeps grad_tol, and the
   converged flag reports the same test.

   The kernel allocates nothing: the caller passes its work space (one
   per thread, since ctypes releases the GIL during the call).

   Build without -ffast-math and with -ffp-contract=off, so that each
   operation rounds as written, except in the products (fh_tile through
   finish), which turn contraction on for themselves: each of their
   single-product steps becomes one fused multiply-add (one rounding) where
   the build host has FMA. A rerun on one host gives the same bits; hosts
   with and without FMA differ at rounding level, as numpy's BLAS kernels
   already do.
   -fno-math-errno only lets sqrt inline and vectorize (its arguments here
   never set errno). */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Sums run over fixed lanes, held in GNU C vector types (gcc, clang) of
   VL doubles, and are added in a fixed order at the end. The lanes are
   part of the source, so the compiler has nothing to reassociate and every
   build, whatever its vector width, adds in the same order (the products'
   steps round once with FMA, twice without). */
#define VL 8
#define NV 2
#define STEP (NV * VL)

typedef double vec __attribute__((vector_size(VL * sizeof(double))));

/* The steps of an iteration stay out of line: inlined, with the products'
   unrolled tiles, into one rmcg_run they made the compiler peak at about
   60 MB instead of 53, for no measurable gain, since each is a loop over n. */
#define OUTLINE __attribute__((noinline))

static vec load(const double *p)
{
    vec v;
    memcpy(&v, p, sizeof v);
    return v;
}

static void store(double *p, vec v)
{
    memcpy(p, &v, sizeof v);
}

static double lane_sum(vec s)
{
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

/* lanes i0, ..., i7 of a and b side by side: a's lanes are 0 to 7, b's 8 to 15 */
#ifdef __clang__
#define SHUFFLE(a, b, ...) __builtin_shufflevector(a, b, __VA_ARGS__)
#else
typedef int64_t lanes __attribute__((vector_size(VL * sizeof(int64_t))));
#define SHUFFLE(a, b, ...) __builtin_shuffle(a, b, (lanes){__VA_ARGS__})
#endif

/* lane_sum(v[l]) in lane l, for eight vectors at once: each level of the
   tree adds the lanes of two vectors pairwise, so the sums are
   lane_sum()'s, for about a ninth of its instructions. */
static inline __attribute__((always_inline)) vec lane_sums(const vec *v)
{
    vec p[4], q[2];
    int i;
    for (i = 0; i < 4; i++)     /* (a0 + a1, b0 + b1, a2 + a3, b2 + b3, ...) */
        p[i] = SHUFFLE(v[2 * i], v[2 * i + 1], 0, 8, 2, 10, 4, 12, 6, 14)
            + SHUFFLE(v[2 * i], v[2 * i + 1], 1, 9, 3, 11, 5, 13, 7, 15);
    for (i = 0; i < 2; i++)     /* (a0123, b0123, c0123, d0123, a4567, ...) */
        q[i] = SHUFFLE(p[2 * i], p[2 * i + 1], 0, 1, 8, 9, 4, 5, 12, 13)
            + SHUFFLE(p[2 * i], p[2 * i + 1], 2, 3, 10, 11, 6, 7, 14, 15);
    return SHUFFLE(q[0], q[1], 0, 1, 2, 3, 8, 9, 10, 11)
        + SHUFFLE(q[0], q[1], 4, 5, 6, 7, 12, 13, 14, 15);
}

/* sum_j a[j] b[j] over n doubles; for complex buffers of n / 2 entries
   this is Re(a^H b). */
static double dot(const double *a, const double *b, ptrdiff_t n)
{
    vec acc[NV] = {{0.0}};
    double tail = 0.0;
    ptrdiff_t j;
    int t;
    for (j = 0; j + STEP <= n; j += STEP)
        for (t = 0; t < NV; t++)
            acc[t] += load(a + j + t * VL) * load(b + j + t * VL);
    for (; j < n; j++)
        tail += a[j] * b[j];
    return lane_sum(acc[0] + acc[1]) + tail;
}

/* The operands are held planar: row k of a (rows x n) complex operand is
   np doubles of real parts, then np of imaginary parts, np being n
   rounded up to VL and the padding zero, so that the products run over
   whole vectors. */
#define RE(p, k, np) ((p) + 2 * (k) * (np))
#define IM(p, k, np) ((p) + (2 * (k) + 1) * (np))

/* dst = the planar copy of the row-major complex src (rows x n); norms
   (n doubles) receives sum_k |src_ki|^2 */
static void to_planar(const double *restrict src, ptrdiff_t rows, ptrdiff_t n,
                      ptrdiff_t np, double *restrict dst, double *restrict norms)
{
    ptrdiff_t i, k;
    memset(norms, 0, sizeof(double) * (size_t)n);
    for (k = 0; k < rows; k++) {
        double *re = RE(dst, k, np), *im = IM(dst, k, np);
        for (i = 0; i < n; i++) {
            double xr = src[2 * (k * n + i)], xi = src[2 * (k * n + i) + 1];
            re[i] = xr;
            im[i] = xi;
            norms[i] += xr * xr + xi * xi;
        }
        for (; i < np; i++)
            re[i] = im[i] = 0.0;
    }
}

/* Contraction is on from here through finish: each complex
   multiply-accumulate below is written as four single-product steps,
   which become four fused multiply-adds where a * b + c - d * e took
   eight operations. */
#ifdef __clang__
#pragma clang fp contract(fast)
#else
#pragma GCC push_options
#pragma GCC optimize ("fp-contract=fast")
#endif

/* A tile of F^H x pairs tb rows of b (at most TB) with TILE / tb rows of
   a, so that its TILE complex sums stay in registers while one pass over
   n reads each of its rows once. x is folded into the rows of whichever
   operand the tile holds fewer of, as they are read. a is held with zero
   rows up to a multiple of the largest TILE / tb in use, so that no tile
   is short of rows of a; a tile's sums for those rows are dropped. */
#define TILE 8
#define TB 4

/* the rows of a, ka, rounded up to a multiple of every TILE / tb that
   fh_product() uses for kb rows of b */
static ptrdiff_t padded_rows(ptrdiff_t ka, ptrdiff_t kb)
{
    ptrdiff_t step = TILE / (kb % TB ? kb % TB : TB);
    return (ka + step - 1) / step * step;
}

typedef struct {
    ptrdiff_t n, np, ka, ka_pad, kb;
    const double *a, *b;   /* the planar operands, ka_pad and kb rows */
    double *x;             /* work space: a planar vector, padding zero */
    double *y;             /* work space: finish()'s planar product */
} quad_op;

/* t[k kb + j] = sum_i a_ki b_ji x_i for the ta rows of a from k0 and the
   tb rows of b from j0 (ta, tb constants once inlined); rows of a from ka
   on are padding, and their sums are dropped */
static inline __attribute__((always_inline)) void
fh_tile(const quad_op *op, ptrdiff_t k0, ptrdiff_t j0, const int ta, const int tb,
        double *t)
{
    const ptrdiff_t np = op->np;
    vec re[TILE] = {{0.0}}, im[TILE] = {{0.0}}, sum_re, sum_im;
    ptrdiff_t i;
    int j, k;
    for (i = 0; i < np; i += VL) {
        vec xr = load(op->x + i), xi = load(op->x + np + i), br[TB], bi[TB];
        for (j = 0; j < tb; j++) {
            br[j] = load(RE(op->b, j0 + j, np) + i);
            bi[j] = load(IM(op->b, j0 + j, np) + i);
            if (tb < ta) {
                vec cr = br[j] * xr - bi[j] * xi;
                bi[j] = br[j] * xi + bi[j] * xr;
                br[j] = cr;
            }
        }
        for (k = 0; k < ta; k++) {
            vec ar = load(RE(op->a, k0 + k, np) + i), ai = load(IM(op->a, k0 + k, np) + i);
            if (tb >= ta) {
                vec cr = ar * xr - ai * xi;
                ai = ar * xi + ai * xr;
                ar = cr;
            }
            for (j = 0; j < tb; j++) {
                re[k * tb + j] += ar * br[j];
                re[k * tb + j] -= ai * bi[j];
                im[k * tb + j] += ar * bi[j];
                im[k * tb + j] += ai * br[j];
            }
        }
    }
    sum_re = lane_sums(re);
    sum_im = lane_sums(im);
    for (k = 0; k < ta && k0 + k < op->ka; k++)
        for (j = 0; j < tb; j++) {
            double *out = t + 2 * ((k0 + k) * op->kb + j0 + j);
            out[0] = sum_re[k * tb + j];
            out[1] = sum_im[k * tb + j];
        }
}

/* fh_tile over all rows of a for the tb rows of b from j0 */
static inline __attribute__((always_inline)) void
fh_block(const quad_op *op, ptrdiff_t j0, const int tb, double *t)
{
    ptrdiff_t k;
    for (k = 0; k < op->ka_pad; k += TILE / tb)
        fh_tile(op, k, j0, TILE / tb, tb, t);
}

/* t = F^H x (ka kb complex entries) for the x in op->x: the rows of b TB
   at a time, then the last kb % TB together */
static OUTLINE void fh_product(const quad_op *op, double *t)
{
    ptrdiff_t j;
    for (j = 0; j + TB <= op->kb; j += TB)
        fh_block(op, j, TB, t);
    switch (op->kb - j) {
    case 3: fh_block(op, j, 3, t); break;
    case 2: fh_block(op, j, 2, t); break;
    case 1: fh_block(op, j, 1, t); break;
    default: break;
    }
}

/* x^H Q x = ||t||^2; aux receives t = F^H x (r complex entries), which
   finish() needs */
static OUTLINE double quadratic(const quad_op *op, const double *x, double *aux)
{
    ptrdiff_t i;
    for (i = 0; i < op->n; i++) {
        op->x[i] = x[2 * i];
        op->x[op->np + i] = x[2 * i + 1];
    }
    fh_product(op, aux);
    return dot(aux, aux, 2 * op->ka * op->kb);
}

/* f(x) = x^H Q x + 2 Re(z^H x), with quadratic()'s aux */
static double evaluate(const quad_op *op, const double *x, const double *z,
                       double *aux)
{
    return quadratic(op, x, aux) + 2.0 * dot(x, z, 2 * op->n);
}

/* F t is sum_k conj(a_k) o (sum_j conj(b_j) t_kj), or as well
   sum_j conj(b_j) o (sum_k conj(a_k) t_kj): finish() takes the operand of
   fewer rows as the outer p (n_p rows) and the other as the inner q, and a
   pass over n holds the sums s of TK rows of p in registers, which share
   each load of a row of q. Entry (p row, q row) of t is at
   t[2 (p_row ps + q_row qs)]. */
#define TK 4

/* op->y += sum_l conj(p_l) o s_l over the tk rows of p from l0 (tk a
   constant once inlined), s_l = sum_m conj(q_m) t(l, m) */
static inline __attribute__((always_inline)) void
f_tile(const quad_op *op, const double *p, const double *q, ptrdiff_t nq,
       const double *t, ptrdiff_t ps, ptrdiff_t qs, ptrdiff_t l0, const int tk)
{
    const ptrdiff_t np = op->np;
    ptrdiff_t i, m;
    int l;
    for (i = 0; i < np; i += VL) {
        vec sr[TK] = {{0.0}}, si[TK] = {{0.0}};
        vec yr = load(op->y + i), yi = load(op->y + np + i);
        for (m = 0; m < nq; m++) {
            vec qr = load(RE(q, m, np) + i), qi = load(IM(q, m, np) + i);
            for (l = 0; l < tk; l++) {
                const double *tlm = t + 2 * ((l0 + l) * ps + m * qs);
                sr[l] += qr * tlm[0];
                sr[l] += qi * tlm[1];
                si[l] += qr * tlm[1];
                si[l] -= qi * tlm[0];
            }
        }
        for (l = 0; l < tk; l++) {
            vec pr = load(RE(p, l0 + l, np) + i), pi = load(IM(p, l0 + l, np) + i);
            yr += pr * sr[l];
            yr += pi * si[l];
            yi += pr * si[l];
            yi -= pi * sr[l];
        }
        store(op->y + i, yr);
        store(op->y + np + i, yi);
    }
}

/* op->y = Q x = F t, from evaluate()'s aux t for the same x: the product
   riemannian_grad() projects. The rows of p go TK at a time, then one at
   a time. */
static OUTLINE void finish(const quad_op *op, const double *t)
{
    const int b_outer = op->kb < op->ka;
    const double *p = b_outer ? op->b : op->a, *q = b_outer ? op->a : op->b;
    const ptrdiff_t n_p = b_outer ? op->kb : op->ka, n_q = b_outer ? op->ka : op->kb,
        ps = b_outer ? 1 : op->kb, qs = b_outer ? op->kb : 1;
    ptrdiff_t l;
    memset(op->y, 0, sizeof(double) * (size_t)(2 * op->np));
    for (l = 0; l + TK <= n_p; l += TK)
        f_tile(op, p, q, n_q, t, ps, qs, l, TK);
    for (; l < n_p; l++)
        f_tile(op, p, q, n_q, t, ps, qs, l, 1);
}

#ifdef __clang__
#pragma clang fp contract(off)
#else
#pragma GCC pop_options
#endif

/* out = Retr(v + step d): entrywise onto the unit circle */
static OUTLINE void retract(const double *v, const double *d, double step,
                    ptrdiff_t n, double *out)
{
    ptrdiff_t i;
    for (i = 0; i < n; i++) {
        double re = v[2 * i] + step * d[2 * i];
        double im = v[2 * i + 1] + step * d[2 * i + 1];
        double mag = sqrt(re * re + im * im);
        out[2 * i] = re / mag;
        out[2 * i + 1] = im / mag;
    }
}

/* The projection of x onto the tangent space at v is
   x - Re(conj(x) o v) o v; Re(conj(x) o v) is the radial part. */
static double radial(const double *x, const double *v, ptrdiff_t i)
{
    return x[2 * i] * v[2 * i] + x[2 * i + 1] * v[2 * i + 1];
}

/* out = projection of the ambient gradient 2 (qv + z) at v, qv planar
   (qr, qi); rad receives its radial parts (n doubles) */
static OUTLINE void riemannian_grad(const double *qr, const double *qi, const double *z,
                            const double *v, ptrdiff_t n, double *out, double *rad)
{
    ptrdiff_t i;
    for (i = 0; i < n; i++) {
        double re = 2.0 * (qr[i] + z[2 * i]);
        double im = 2.0 * (qi[i] + z[2 * i + 1]);
        double p = re * v[2 * i] + im * v[2 * i + 1];
        out[2 * i] = re - p * v[2 * i];
        out[2 * i + 1] = im - p * v[2 * i + 1];
        rad[i] = p;
    }
}

/* max_i |Re(conj(x_i) v_i)| for x = a and x = b, each NaN if any of its
   entries is (as numpy's max). The maxima are taken over the bit patterns:
   for nonnegative doubles their order as integers is the order of the
   values, with every NaN above +inf, and an integer maximum vectorizes
   where a floating-point one with NaN semantics does not. */
static OUTLINE void tangency(const double *a, const double *b, const double *v,
                     ptrdiff_t n, double *worst)
{
    ptrdiff_t i;
    uint64_t wa = 0, wb = 0;
    for (i = 0; i < n; i++) {
        double pa = fabs(radial(a, v, i)), pb = fabs(radial(b, v, i));
        uint64_t ba, bb;
        memcpy(&ba, &pa, sizeof ba);
        memcpy(&bb, &pb, sizeof bb);
        wa = ba > wa ? ba : wa;
        wb = bb > wb ? bb : wb;
    }
    memcpy(&worst[0], &wa, sizeof wa);
    memcpy(&worst[1], &wb, sizeof wb);
}

/* pg = g * (1 / h) entrywise, with h_i = 2 Q_ii - rad_i (the diagonal of
   the Riemannian Hessian) floored at h_floor * max_i h_i;
   g itself when some h_i is not finite or max_i h_i <= 0. h is work space
   for the unfloored h_i (n doubles). Returns Re(g^H pg). The finiteness test and
   the maximum (over max(h_i, 0), where the order of nonnegative doubles
   is that of their bit patterns) are integer operations, which vectorize
   where floating-point reductions do not. */
static OUTLINE double precondition(const double *q_diag, const double *rad,
                           const double *g, ptrdiff_t n, double h_floor,
                           double *h, double *pg)
{
    const uint64_t exponent = 0x7ff0000000000000u;
    uint64_t top = 0, top_exponent = 0;
    double h_max;
    ptrdiff_t i;
    for (i = 0; i < n; i++) {
        double hi = 2.0 * q_diag[i] - rad[i];
        uint64_t bits, pos_bits, exp_bits;
        memcpy(&bits, &hi, sizeof bits);
        pos_bits = bits >> 63 ? 0 : bits;      /* the bits of max(h_i, 0) */
        exp_bits = bits & exponent;
        top_exponent = exp_bits > top_exponent ? exp_bits : top_exponent;
        top = pos_bits > top ? pos_bits : top;
        h[i] = hi;
    }
    memcpy(&h_max, &top, sizeof h_max);
    /* an all-ones exponent field is an infinity or a NaN */
    if (top_exponent == exponent || !(h_max > 0.0)) {
        memcpy(pg, g, sizeof(double) * (size_t)(2 * n));
        return dot(g, g, 2 * n);
    }
    h_floor *= h_max;
    for (i = 0; i < n; i++) {
        double scale = 1.0 / (h[i] > h_floor ? h[i] : h_floor);
        pg[2 * i] = g[2 * i] * scale;
        pg[2 * i + 1] = g[2 * i + 1] * scale;
    }
    return dot(g, pg, 2 * n);
}

#define SWAP(a, b) do { double *swap_ = (a); (a) = (b); (b) = swap_; } while (0)

/* Arguments of rmcg_run; ah (ka x n) and bh (kb x n) are the form's
   operands of F^H and z its linear term (n complex), all read in place
   from the form; work is the caller's work space of work_len doubles, at
   least 2 (ka + kb + TILE + 1) np + 20 n + 4 ka kb + VL with np = n
   rounded up to VL; shrink, armijo_c, max_backtracks and precond_floor
   are the irsopt._kernels constants both kernels use. */
typedef struct {
    const double *ah, *bh, *z;
    double *work;
    int64_t work_len, n, ka, kb, max_iters, max_backtracks;
    double grad_tol, rel_tol, shrink, armijo_c, precond_floor;
} rmcg_args;

/* Minimize v^H Q v + 2 Re(v^H z) over unit-modulus v.

   buf holds, in order: v0 (n complex, overwritten with the final point),
   the objective and the Riemannian gradient norm before and after each
   iteration (max_iters + 1 doubles each, NaN beyond the last iteration),
   and (tangency residual, line search failed, converged). Returns the
   number of iterations done, or -1, touching nothing, if work_len is
   short of what the work space must hold. */
int64_t rmcg_run(const rmcg_args *a, double *buf)
{
    const int64_t n = a->n, ka = a->ka, kb = a->kb, r = ka * kb,
        np = (n + VL - 1) / VL * VL, ka_pad = padded_rows(ka, kb),
        max_iters = a->max_iters;
    const double rel_tol = a->rel_tol, shrink = a->shrink,
        armijo_c = a->armijo_c, h_floor = a->precond_floor;
    double grad_tol = a->grad_tol;
    ptrdiff_t i, m = 2 * (ptrdiff_t)n;
    int64_t it, b, n_done = 0;
    const double *z = a->z;
    double *obj_hist = buf + m, *grad_hist = obj_hist + max_iters + 1,
        *info = grad_hist + max_iters + 1;
    double *a_pl, *b_pl, *v, *cand, *aux_cand, *v_new, *aux_new, *rgrad,
        *rgrad_new, *pg, *pg_new, *dir, *tmp, *rad, *q_diag;
    double f_cur, gnorm2, gpg, tang_res = 0.0;
    int failed = 0;
    quad_op op;

    if (a->work_len < 2 * (ka + kb + TILE + 1) * np + 20 * n + 4 * r + VL)
        return -1;
    /* a_pl and b_pl hold the planar operands and op.x and op.y planar
       vectors, all from a 64-byte boundary; aux_cand and aux_new hold
       evaluate()'s aux for cand and v_new; rad holds the gradient's radial
       parts at v, pg the preconditioned gradient and q_diag the diagonal
       of Q */
    a_pl = (double *)(((uintptr_t)a->work + 63) & ~(uintptr_t)63);
    b_pl = a_pl + 2 * ka_pad * np; op.x = b_pl + 2 * kb * np; op.y = op.x + 2 * np;
    v = op.y + 2 * np; cand = v + m; v_new = cand + m;
    rgrad = v_new + m; rgrad_new = rgrad + m; pg = rgrad_new + m;
    pg_new = pg + m; dir = pg_new + m;
    tmp = dir + m; aux_cand = tmp + m; aux_new = aux_cand + 2 * r;
    rad = aux_new + 2 * r; q_diag = rad + n;
    op.n = n; op.np = np; op.ka = ka; op.ka_pad = ka_pad; op.kb = kb;
    op.a = a_pl; op.b = b_pl;

    for (i = 0; i <= max_iters; i++)
        obj_hist[i] = grad_hist[i] = NAN;
    /* Q_ii = (sum_k |a_ki|^2) (sum_j |b_ji|^2), the second sum taken into
       op.y before it is needed */
    to_planar(a->ah, ka, n, np, a_pl, q_diag);
    memset(RE(a_pl, ka, np), 0, sizeof(double) * (size_t)(2 * (ka_pad - ka) * np));
    to_planar(a->bh, kb, n, np, b_pl, op.y);
    for (i = 0; i < n; i++)
        q_diag[i] *= op.y[i];
    memset(op.x, 0, sizeof(double) * (size_t)(2 * np));

    memcpy(v, buf, sizeof(double) * (size_t)m);
    f_cur = evaluate(&op, v, z, aux_new);
    finish(&op, aux_new);
    riemannian_grad(op.y, op.y + np, z, v, n, rgrad, rad);
    gnorm2 = dot(rgrad, rgrad, m);
    gpg = precondition(q_diag, rad, rgrad, n, h_floor, tmp, pg);
    for (i = 0; i < m; i++)
        dir[i] = -pg[i];
    obj_hist[0] = f_cur;
    grad_hist[0] = sqrt(gnorm2);
    /* a NaN or infinite start fails the test and keeps the absolute floor */
    if (grad_tol < rel_tol * grad_hist[0] && rel_tol * grad_hist[0] < INFINITY)
        grad_tol = rel_tol * grad_hist[0];

    for (it = 0; it < max_iters; it++) {
        double slope, d2max = 0.0, c2, reach, step, f_new = f_cur, gnorm2_new,
            gpg_new, beta, worst[2];
        int accepted = 0;
        if (sqrt(gnorm2) <= grad_tol)
            break;
        slope = dot(dir, rgrad, m);
        if (!isfinite(slope) || slope >= 0.0) {
            for (i = 0; i < m; i++)
                dir[i] = -pg[i];
            slope = -gpg;
        }
        for (i = 0; i < n; i++) {        /* tmp = |d_i|^2 */
            tmp[i] = dir[2 * i] * dir[2 * i] + dir[2 * i + 1] * dir[2 * i + 1];
            d2max = tmp[i] > d2max ? tmp[i] : d2max;
        }
        c2 = quadratic(&op, dir, aux_cand) - 0.5 * dot(tmp, rad, n);
        reach = sqrt(d2max);
        /* the model's minimizer, capped at 1 / reach; a NaN c2 fails the
           comparison and takes the cap */
        step = 2.0 * c2 > -slope * reach ? -slope / (2.0 * c2) : 1.0 / reach;
        for (b = 0; b < a->max_backtracks; b++) {
            double f_cand;
            retract(v, dir, step, n, cand);
            f_cand = evaluate(&op, cand, z, aux_cand);
            if (f_cand <= f_cur + armijo_c * step * slope) {
                accepted = 1;
                SWAP(cand, v_new);
                SWAP(aux_cand, aux_new);
                f_new = f_cand;
                break;
            }
            step *= shrink;
        }
        if (!accepted) {
            failed = 1;
            break;
        }

        finish(&op, aux_new);
        riemannian_grad(op.y, op.y + np, z, v_new, n, rgrad_new, rad);
        gnorm2_new = dot(rgrad_new, rgrad_new, m);
        gpg_new = precondition(q_diag, rad, rgrad_new, n, h_floor, tmp, pg_new);
        beta = 0.0;
        if (gpg > 0.0) {
            double cap;
            for (i = 0; i < n; i++) {    /* pg_new - transported pg */
                double p = radial(pg, v_new, i);
                tmp[2 * i] = pg_new[2 * i] - (pg[2 * i] - p * v_new[2 * i]);
                tmp[2 * i + 1] = pg_new[2 * i + 1]
                    - (pg[2 * i + 1] - p * v_new[2 * i + 1]);
            }
            beta = dot(rgrad_new, tmp, m) / gpg;
            cap = gpg_new / gpg;
            if (beta > cap)
                beta = cap;
        }
        if (beta < 0.0)
            beta = 0.0;
        for (i = 0; i < n; i++) {        /* -pg_new + beta transported dir */
            double p = radial(dir, v_new, i);
            dir[2 * i] = -pg_new[2 * i] + beta * (dir[2 * i] - p * v_new[2 * i]);
            dir[2 * i + 1] = -pg_new[2 * i + 1]
                + beta * (dir[2 * i + 1] - p * v_new[2 * i + 1]);
        }

        tangency(rgrad_new, dir, v_new, n, worst);
        if (worst[0] > tang_res)
            tang_res = worst[0];
        if (worst[1] > tang_res)
            tang_res = worst[1];

        SWAP(v, v_new);
        SWAP(rgrad, rgrad_new);
        SWAP(pg, pg_new);
        f_cur = f_new;
        gnorm2 = gnorm2_new;
        gpg = gpg_new;
        n_done = it + 1;
        obj_hist[n_done] = f_cur;
        grad_hist[n_done] = sqrt(gnorm2);
    }

    memcpy(buf, v, sizeof(double) * (size_t)m);
    info[0] = tang_res;
    info[1] = failed;
    info[2] = sqrt(gnorm2) <= grad_tol;
    return n_done;
}

/* The beamformer step.

   A port of irsopt.beamformer.solve_beamforming_numpy, the numpy
   reference, for one draw or a stack of them: per draw the weighted Gram
   matrix G = sum_k s_k hbar_k hbar_k^H, s_k = alpha_k q_k |u_k|^2, its
   eigendecomposition, the null-space mask, the modes' projections and
   coefficients, the dual search and the back-substitution into w. The
   dual search (optimal_dual, dual_search, _power_and_slope) is a
   line-for-line port, so on the same modes it takes the same steps and
   rounds as the reference; the Gram matrix, its eigendecomposition and
   the projections are computed otherwise than by numpy and LAPACK, so
   the two implementations agree to rounding.

   The eigendecomposition is the cyclic Jacobi method (Golub and Van Loan,
   Matrix Computations, 4th ed., section 8.5) for Hermitian matrices: each
   rotation zeroes one off-diagonal entry a_pq = |a_pq| e with the unitary
   U = [c, s e; -s conj(e), c] on rows and columns p and q, where c and s
   are the real rotation that diagonalizes [a_pp, |a_pq|; |a_pq|, a_qq].
   Sweeps run over the pairs p < q in row order and skip entries at or
   below JACOBI_TOL ||G||_F, the size of the backward error of any stable
   method (LAPACK's included); the first sweep that rotates nothing ends
   the method, and one still rotating after JACOBI_MAX_SWEEPS sweeps fails
   it. It converges quadratically: about 4 sweeps at 4 x 4 and 5 to 6 at
   8 x 8.

   The matrices are held planar and by columns (column j is np real
   parts, then np imaginary parts, np being n rounded up to VL and the
   padding zero), so that a rotation updates two columns of G and of the
   eigenvectors in whole vectors, and mirrors the two columns into rows
   p and q. The sums over the antennas (the projections) run over fixed
   lanes, as dot() does. Every draw runs the same code on the same
   layout, so a draw of a stack gets the bits of its own call. */

#define JACOBI_MAX_SWEEPS 50
#define JACOBI_TOL 2.220446049250313e-16   /* DBL_EPSILON */

/* beamformer_run's return values, which irsopt.beamformer turns into the
   reference's exceptions */
#define BF_SHORT (-1)      /* buf_len is short of the layout below */
#define BF_WEIGHTS 1       /* a surrogate weight q_k is not positive */
#define BF_EIG 2           /* a Gram matrix is not finite, or Jacobi did not converge */
#define BF_BRACKET 3       /* g(lambda_max) exceeds the budget */
#define BF_BUDGET 4        /* a binding budget is not positive */

/* an entry of an interleaved complex buffer */
#define CRE(p, i) ((p)[2 * (i)])
#define CIM(p, i) ((p)[2 * (i) + 1])

/* (x, y) = (c x - conj(z) y, z x + c y) on planar complex vectors of np
   doubles, for real c and z = (zr, zi): the columns p and q of a
   rotation */
static void rotate_pair(double *xr, double *xi, double *yr, double *yi, ptrdiff_t np,
                        double c, double zr, double zi)
{
    ptrdiff_t i;
    for (i = 0; i < np; i += VL) {
        const vec ar = load(xr + i), ai = load(xi + i), br = load(yr + i),
            bi = load(yi + i);
        store(xr + i, c * ar - (zr * br + zi * bi));
        store(xi + i, c * ai - (zr * bi - zi * br));
        store(yr + i, (zr * ar - zi * ai) + c * br);
        store(yi + i, (zr * ai + zi * ar) + c * bi);
    }
}

/* (re, im) = x^H y for planar complex vectors of np doubles */
static void conj_dot(const double *xr, const double *xi, const double *yr,
                     const double *yi, ptrdiff_t np, double *re, double *im)
{
    vec sr = {0.0}, si = {0.0};
    ptrdiff_t i;
    for (i = 0; i < np; i += VL) {
        const vec ar = load(xr + i), ai = load(xi + i), br = load(yr + i),
            bi = load(yi + i);
        sr += ar * br + ai * bi;
        si += ar * bi - ai * br;
    }
    *re = lane_sum(sr);
    *im = lane_sum(si);
}

/* One rotation of the Jacobi method on pair (p, q) of the planar n x n
   Hermitian a and its eigenvectors v (columns of 2 np doubles), for a_pq
   of squared magnitude mag2 > 0. With delta = a_qq - a_pp, r =
   sqrt(delta^2 + 4 mag2) and w = |delta| + r, the rotation's cosine is
   c = sqrt(w / (2 r)) and s e = sign(delta) (2 c / w) a_pq (sign(0) = +1),
   and it moves sign(delta) 2 mag2 / w from a_pp to a_qq: the classical
   t = tan = sign(theta) / (|theta| + sqrt(theta^2 + 1)), theta = delta /
   (2 |a_pq|), without |a_pq| and with one division on the path to c. */
static void jacobi_rotate(double *a, double *v, ptrdiff_t n, ptrdiff_t np, ptrdiff_t p,
                          ptrdiff_t q, double mag2)
{
    double *const pr = RE(a, p, np), *const pi = IM(a, p, np), *const qr = RE(a, q, np),
        *const qi = IM(a, q, np);
    const double app = pr[p], aqq = qr[q], delta = aqq - app, sign = delta < 0.0 ? -1.0 : 1.0;
    const double r = sqrt(delta * delta + 4.0 * mag2), w = fabs(delta) + r;
    const double c = sqrt(w / (2.0 * r)), f = sign * (2.0 / w) * c;
    const double zr = f * qr[p], zi = f * qi[p], shift = sign * (2.0 * mag2) / w;
    ptrdiff_t k;
    rotate_pair(pr, pi, qr, qi, np, c, zr, zi);
    rotate_pair(RE(v, p, np), IM(v, p, np), RE(v, q, np), IM(v, q, np), np, c, zr, zi);
    for (k = 0; k < n; k++) {     /* rows p and q, the conjugates of the columns */
        RE(a, k, np)[p] = pr[k];
        IM(a, k, np)[p] = -pi[k];
        RE(a, k, np)[q] = qr[k];
        IM(a, k, np)[q] = -qi[k];
    }
    pr[p] = app - shift;
    qr[q] = aqq + shift;
    pi[p] = qi[q] = pr[q] = pi[q] = qr[p] = qi[p] = 0.0;
}

/* The eigendecomposition of the planar n x n Hermitian a (overwritten):
   v receives the eigenvectors as columns, d the eigenvalues and order the
   modes' indices sorted by ascending eigenvalue. Returns 0 where a's
   squared Frobenius norm is not finite or the method does not converge. */
static int jacobi(double *a, double *v, double *d, int64_t *order, ptrdiff_t n,
                  ptrdiff_t np)
{
    const double norm2 = dot(a, a, 2 * n * np);
    const double tol2 = JACOBI_TOL * JACOBI_TOL * norm2;
    ptrdiff_t i, j, p, q;
    int sweep, rotated = 1;
    if (!(norm2 < INFINITY))
        return 0;
    memset(v, 0, sizeof(double) * (size_t)(2 * n * np));
    for (i = 0; i < n; i++)
        RE(v, i, np)[i] = 1.0;
    for (sweep = 0; rotated && sweep < JACOBI_MAX_SWEEPS; sweep++) {
        rotated = 0;
        for (p = 0; p < n; p++)
            for (q = p + 1; q < n; q++) {
                const double re = RE(a, q, np)[p], im = IM(a, q, np)[p],
                    mag2 = re * re + im * im;
                if (mag2 > tol2) {
                    jacobi_rotate(a, v, n, np, p, q, mag2);
                    rotated = 1;
                }
            }
    }
    if (rotated)
        return 0;
    /* insertion sort, ascending; equal eigenvalues keep their index order */
    for (i = 0; i < n; i++) {
        d[i] = RE(a, i, np)[i];
        for (j = i; j > 0 && d[order[j - 1]] > d[i]; j--)
            order[j] = order[j - 1];
        order[j] = i;
    }
    return 1;
}

/* _power_and_slope: g(lam) and g'(lam) over the modes' c and d */
static double power_and_slope(double lam, const double *c, const double *d,
                              ptrdiff_t n, double *slope_out)
{
    double g = 0.0, slope = 0.0;
    ptrdiff_t i;
    for (i = 0; i < n; i++) {
        const double r = 1.0 / (d[i] + lam);
        const double t = c[i] * r * r;
        g += t;
        slope += t * r;
    }
    *slope_out = -2.0 * slope;
    return g;
}

/* dual_search: the root of g(lam) = p_max on [0, lam_max] from lam0;
   *lam_out receives it, and the return value is the probes spent */
static int64_t dual_search(const double *c, const double *d, ptrdiff_t n, double p_max,
                           double lam_max, double lam0, double power_tol,
                           double lam_tol, double *lam_out)
{
    double lo = 0.0, hi = lam_max, lam = lam0;
    int64_t probes = 0;
    while (hi - lo > lam_tol) {
        double g, slope, step;
        probes++;
        g = power_and_slope(lam, c, d, n, &slope);
        if (fabs(g - p_max) <= power_tol) {
            *lam_out = lam;
            return probes;
        }
        if (g > p_max)
            lo = lam;
        else
            hi = lam;
        step = lam + 2.0 * g * (1.0 - sqrt(g / p_max)) / slope;
        lam = lo < step && step < hi ? step : 0.5 * (lo + hi);
        if (!(lo < lam && lam < hi))
            break;   /* lo and hi are adjacent doubles: the bracket cannot shrink */
    }
    *lam_out = hi;
    return probes;
}

/* Arguments of beamformer_run: the stack's shape (n_draws draws of
   n_users x n_tx channels), buf's length in doubles, and the
   irsopt.beamformer constants both implementations use. */
typedef struct {
    int64_t n_draws, n_users, n_tx, buf_len;
    double eig_rel, power_tol_rel, lam_tol_rel, power_slack_rel;
} beamformer_args;

/* optimal_dual on the n positive modes' c and d, ascending in d: 0 with
   no probes where g(0) fits the budget, else the dual search's root from
   max(0, max_i sqrt(c_i / p_max) - d_i). *lam_out receives it; returns
   the probes, or -BF_BUDGET or -BF_BRACKET where the reference raises. */
static int64_t optimal_dual(const beamformer_args *a, const double *c, const double *d,
                            ptrdiff_t n, double p_max, double *lam_out)
{
    double slope, coef_sum = 0.0, lam_max, lam0 = 0.0;
    ptrdiff_t i;
    *lam_out = 0.0;
    if (power_and_slope(0.0, c, d, n, &slope) <= p_max)
        return 0;
    if (p_max <= 0.0)
        return -BF_BUDGET;
    for (i = 0; i < n; i++)
        coef_sum += c[i];
    lam_max = sqrt(coef_sum / p_max);
    if (power_and_slope(lam_max, c, d, n, &slope) > p_max * (1.0 + a->power_slack_rel))
        return -BF_BRACKET;
    for (i = 0; i < n; i++) {     /* Python's max(0.0, ...): a NaN never wins */
        const double x = sqrt(c[i] / p_max) - d[i];
        if (x > lam0)
            lam0 = x;
    }
    return dual_search(c, d, n, p_max, lam_max, lam0, a->power_tol_rel * p_max,
                       a->lam_tol_rel * lam_max, lam_out);
}

/* Solve the beamforming subproblem of each draw.

   buf holds, in order, with B = n_draws, K = n_users and n = n_tx:
   hbar (B K n complex, row-major; overwritten with the beamformers w),
   the decoders u (B K complex), the surrogate weights q (B K), the user
   weights alpha (B K), the budgets p_max (B; overwritten with the dual
   values lam), the probes (B int64, written), and work space of
   2 (K + 2 n + 1) np + 2 n K + 3 n + 2 K + VL doubles, np being n
   rounded up to VL.

   Every q_k is checked before any draw is solved. A draw whose
   eigendecomposition fails stops the call at once; a draw whose dual
   search fails stops the solving of later draws, whose
   eigendecompositions still run, so that the failure returned is the
   one the reference raises first: it factorizes the whole stack before
   its first dual search. Returns 0, a BF_* code, or BF_SHORT, touching
   nothing, where n is 0 or buf_len is short of the layout. */
int64_t beamformer_run(const beamformer_args *a, double *buf)
{
    const ptrdiff_t nb = a->n_draws, nk = a->n_users, n = a->n_tx, size = nb * nk,
        np = (n + VL - 1) / VL * VL;
    double *const hbar = buf, *const u = hbar + 2 * size * n, *const q = u + 2 * size,
        *const alpha = q + size, *const p_max = alpha + size, *const probes = p_max + nb;
    double *h_pl, *gram, *vec_pl, *x, *d, *c, *proj, *aq;
    int64_t *order, status = 0;
    ptrdiff_t b, i, j, k, m;

    if (n < 1 || a->buf_len < 2 * size * n + 4 * size + 2 * nb + 2 * (nk + 2 * n + 1) * np
        + 2 * n * nk + 3 * n + 2 * nk + VL)
        return BF_SHORT;
    /* h_pl holds one draw's hbar planar, row k at RE(h_pl, k, np), gram
       and vec_pl the planar Gram matrix and eigenvectors, all from a
       64-byte boundary; x is planar work space for one beamformer */
    h_pl = (double *)(((uintptr_t)(probes + nb) + 63) & ~(uintptr_t)63);
    gram = h_pl + 2 * nk * np; vec_pl = gram + 2 * n * np; x = vec_pl + 2 * n * np;
    d = x + 2 * np; c = d + n; proj = c + n; aq = proj + 2 * n * nk;
    order = (int64_t *)(aq + 2 * nk);
    for (i = 0; i < size; i++)
        if (!(q[i] > 0.0))
            return BF_WEIGHTS;

    for (b = 0; b < nb; b++) {
        double *const h = hbar + 2 * b * nk * n, *const scale = aq + nk;
        const double *const ub = u + 2 * b * nk;
        double cutoff, lam;
        ptrdiff_t n_null, n_pos;
        int64_t n_probes;

        /* column j of the Gram matrix, sum_k (s_k conj(hbar_kj)) hbar_k,
           s_k = aq_k |u_k|^2, below the diagonal; the rest mirrors it */
        memset(h_pl, 0, sizeof(double) * (size_t)(2 * nk * np));
        for (k = 0; k < nk; k++) {
            aq[k] = alpha[b * nk + k] * q[b * nk + k];
            scale[k] = aq[k] * (CRE(ub, k) * CRE(ub, k) + CIM(ub, k) * CIM(ub, k));
            for (j = 0; j < n; j++) {
                RE(h_pl, k, np)[j] = CRE(h, k * n + j);
                IM(h_pl, k, np)[j] = CIM(h, k * n + j);
            }
        }
        memset(gram, 0, sizeof(double) * (size_t)(2 * n * np));
        for (j = 0; j < n; j++) {
            double *const gr = RE(gram, j, np), *const gi = IM(gram, j, np);
            for (k = 0; k < nk; k++) {
                const double zr = scale[k] * RE(h_pl, k, np)[j],
                    zi = -scale[k] * IM(h_pl, k, np)[j];
                const double *const hr = RE(h_pl, k, np), *const hi = IM(h_pl, k, np);
                for (i = 0; i < np; i += VL) {
                    const vec yr = load(hr + i), yi = load(hi + i);
                    store(gr + i, load(gr + i) + (zr * yr - zi * yi));
                    store(gi + i, load(gi + i) + (zr * yi + zi * yr));
                }
            }
            gi[j] = 0.0;
            for (i = 0; i < j; i++) {
                gr[i] = RE(gram, i, np)[j];
                gi[i] = -IM(gram, i, np)[j];
            }
        }
        if (!jacobi(gram, vec_pl, d, order, n, np))
            return BF_EIG;
        if (status)
            continue;

        /* the null space is a prefix of the ascending modes; a largest
           eigenvalue at or below 0 puts every mode in it */
        cutoff = a->eig_rel * d[order[n - 1]];
        for (n_null = 0; n_null < n && d[order[n_null]] <= cutoff; n_null++)
            ;
        n_pos = n - n_null;
        /* for the positive modes m (mode order[n_null + m]), ascending:
           proj_mk = aq_k u_k (v^H hbar_k) and c_m = sum_k |proj_mk|^2, with
           d_m in x */
        for (m = 0; m < n_pos; m++) {
            const ptrdiff_t mode = order[n_null + m];
            const double *const vr = RE(vec_pl, mode, np), *const vi = IM(vec_pl, mode, np);
            double cm = 0.0;
            x[m] = d[mode];
            for (k = 0; k < nk; k++) {
                double re, im, pr, pi;
                const double fr = aq[k] * CRE(ub, k), fi = aq[k] * CIM(ub, k);
                conj_dot(vr, vi, RE(h_pl, k, np), IM(h_pl, k, np), np, &re, &im);
                pr = re * fr - im * fi;
                pi = re * fi + im * fr;
                CRE(proj, m * nk + k) = pr;
                CIM(proj, m * nk + k) = pi;
                cm += pr * pr + pi * pi;
            }
            c[m] = cm;
        }
        memcpy(d, x, sizeof(double) * (size_t)n_pos);

        n_probes = optimal_dual(a, c, d, n_pos, p_max[b], &lam);
        if (n_probes < 0) {
            status = -n_probes;
            continue;
        }
        /* w_k = sum_m v_m proj_mk / (d_m + lam), into h */
        for (m = 0; m < n_pos; m++)
            for (k = 0; k < nk; k++) {
                CRE(proj, m * nk + k) /= d[m] + lam;
                CIM(proj, m * nk + k) /= d[m] + lam;
            }
        for (k = 0; k < nk; k++) {
            memset(x, 0, sizeof(double) * (size_t)(2 * np));
            for (m = 0; m < n_pos; m++) {
                const ptrdiff_t mode = order[n_null + m];
                const double pr = CRE(proj, m * nk + k), pi = CIM(proj, m * nk + k);
                const double *const vr = RE(vec_pl, mode, np), *const vi = IM(vec_pl, mode, np);
                for (i = 0; i < np; i += VL) {
                    const vec ar = load(vr + i), ai = load(vi + i);
                    store(x + i, load(x + i) + (ar * pr - ai * pi));
                    store(x + np + i, load(x + np + i) + (ar * pi + ai * pr));
                }
            }
            for (j = 0; j < n; j++) {
                CRE(h, k * n + j) = x[j];
                CIM(h, k * n + j) = x[np + j];
            }
        }
        p_max[b] = lam;
        memcpy(probes + b, &n_probes, sizeof n_probes);
    }
    return status;
}

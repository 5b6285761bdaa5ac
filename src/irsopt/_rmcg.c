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
   and calls rmcg_run through ctypes.

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
   operation rounds as written; -fno-math-errno only lets sqrt inline and
   vectorize (its arguments here never set errno). */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Sums run over fixed lanes, held in GNU C vector types (gcc, clang) of
   VL doubles, and are added in a fixed order at the end. The lanes are
   part of the source, so the compiler has nothing to reassociate and every
   build, whatever its vector width, gives the same sums. */
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
                re[k * tb + j] += ar * br[j] - ai * bi[j];
                im[k * tb + j] += ar * bi[j] + ai * br[j];
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
                sr[l] += qr * tlm[0] + qi * tlm[1];
                si[l] += qr * tlm[1] - qi * tlm[0];
            }
        }
        for (l = 0; l < tk; l++) {
            vec pr = load(RE(p, l0 + l, np) + i), pi = load(IM(p, l0 + l, np) + i);
            yr += pr * sr[l] + pi * si[l];
            yi += pr * si[l] - pi * sr[l];
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

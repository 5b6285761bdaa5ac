/* Manifold conjugate-gradient descent on the product of unit circles.

   A port of irsopt._kernels.rmcg_core_numpy to C99 with GNU vector types
   (gcc, clang), step for step: same preconditioner, direction rule, first
   step, line search, stopping test, tangency check, history padding and
   flags, except that a candidate is scored by ||F^H x||^2.

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
   form hands over two factors, A^H (ka x n) and B^H (kb x n), row-major,
   and F^H (r = ka kb rows) is their Khatri-Rao product: row k kb + j of
   F^H is A^H[k] o B^H[j], entry by entry. expand() writes it once per
   call into the caller's work space and, in the same pass, the squared
   column norms of F^H (Q_ii). Each product is rounded as numpy's
   complex multiply rounds it where numpy uses FMA (checked with numpy
   2.4.6 on x86-64 with AVX-512): re = fma(ar, br, -(ai bi)) and
   im = fma(ar, bi, ai br). The calls are explicit, so -ffp-contract=off
   leaves them alone, and the expanded F^H equals the array
   QuadraticForm.factor_h forms with numpy, bit for bit, on such a build.
   F^H x takes contiguous row dot products; F t accumulates ROWS rows of
   F^H at a time into an n-vector.

   The line search needs only objective values, f(x) = ||t||^2 +
   2 Re(z^H x) with t = F^H x: a trial point costs the one product F^H x,
   and F t, which the gradient needs, is formed (a pass over the rows of
   F^H) for the accepted point alone. An iteration with k trial points
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
   operation rounds as written; -fno-math-errno only lets sqrt and fma
   inline and vectorize (their arguments here never set errno). */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Sums run over NV * VL fixed lanes, held in GNU C vector types (gcc,
   clang), and are added in a fixed order at the end. The lanes are part
   of the source, so the compiler has nothing to reassociate and every
   build, whatever its vector width, gives the same sums. */
#define VL 4
#define NV 4
#define STEP (NV * VL)

typedef double vec __attribute__((vector_size(VL * sizeof(double))));

static vec load(const double *p)
{
    vec v;
    memcpy(&v, p, sizeof v);
    return v;
}

static double lane_sum(const vec *acc, double tail)
{
    vec s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    return ((s[0] + s[1]) + (s[2] + s[3])) + tail;
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
    return lane_sum(acc, tail);
}

/* y = A x for a row-major complex (rows x cols) A. xr = (Re x, -Im x) and
   xi = (Im x, Re x) interleaved, so that row . xr and row . xi are the
   real and imaginary parts of each entry of A x. */
static void row_dots(const double *a, ptrdiff_t rows, ptrdiff_t cols,
                     const double *xr, const double *xi, double *y)
{
    ptrdiff_t i, j, n = 2 * cols;
    int t;
    for (i = 0; i < rows; i++) {
        const double *row = a + i * n;
        vec acc_r[NV] = {{0.0}}, acc_i[NV] = {{0.0}};
        double tail_r = 0.0, tail_i = 0.0;
        for (j = 0; j + STEP <= n; j += STEP)
            for (t = 0; t < NV; t++) {
                vec x = load(row + j + t * VL);
                acc_r[t] += x * load(xr + j + t * VL);
                acc_i[t] += x * load(xi + j + t * VL);
            }
        for (; j < n; j++) {
            tail_r += row[j] * xr[j];
            tail_i += row[j] * xi[j];
        }
        y[2 * i] = lane_sum(acc_r, tail_r);
        y[2 * i + 1] = lane_sum(acc_i, tail_i);
    }
}

/* Rows of F^H per pass of F t over an n-vector: four at a time, F t is no
   slower than row dot products over a stored F; one at a time, it takes
   about half as long again. The four terms of a block are summed
   pairwise before they join the running sum, so a sum over r rows rounds
   about r / 4 + 2 times in a row, not r times. */
#define ROWS 4

/* y += A^H t over rows (at most ROWS) rows of the row-major complex A
   (rows x n), that is y_i += sum_s conj(A_si) t_s */
static inline void adjoint_rows(const double *a, ptrdiff_t n, int rows,
                                const double *t, double *y)
{
    ptrdiff_t i;
    int s;
    for (i = 0; i < n; i++) {
        double re[ROWS] = {0.0}, im[ROWS] = {0.0};
        for (s = 0; s < rows; s++) {
            double ar = a[2 * (s * n + i)], ai = a[2 * (s * n + i) + 1];
            re[s] = ar * t[2 * s] + ai * t[2 * s + 1];
            im[s] = ar * t[2 * s + 1] - ai * t[2 * s];
        }
        y[2 * i] += (re[0] + re[1]) + (re[2] + re[3]);
        y[2 * i + 1] += (im[0] + im[1]) + (im[2] + im[3]);
    }
}

/* y = A^H t (n complex entries) for the row-major complex A (r x n):
   rows go ROWS at a time, the last r % ROWS one at a time */
static void adjoint(const double *a, ptrdiff_t r, ptrdiff_t n,
                    const double *t, double *y)
{
    ptrdiff_t k;
    memset(y, 0, sizeof(double) * (size_t)(2 * n));
    for (k = 0; k + ROWS <= r; k += ROWS)
        adjoint_rows(a + 2 * k * n, n, ROWS, t + 2 * k, y);
    for (; k < r; k++)
        adjoint_rows(a + 2 * k * n, n, 1, t + 2 * k, y);
}

/* fh = the Khatri-Rao product of the row-major complex ah (ka x n) and
   bh (kb x n): row k kb + j of fh is ah[k] o bh[j]. q receives the
   squared column norms of fh (n doubles), accumulated a row at a time,
   each row right after it is written, while it is in L1. The fma() order
   is numpy's; see the header. The four arrays must not overlap. */
static void expand(const double *restrict ah, const double *restrict bh,
                   ptrdiff_t ka, ptrdiff_t kb, ptrdiff_t n,
                   double *restrict fh, double *restrict q)
{
    ptrdiff_t i, j, k;
    memset(q, 0, sizeof(double) * (size_t)n);
    for (k = 0; k < ka; k++)
        for (j = 0; j < kb; j++) {
            const double *a = ah + 2 * k * n, *b = bh + 2 * j * n;
            double *row = fh + 2 * (k * kb + j) * n;
            for (i = 0; i < n; i++) {
                row[2 * i] = fma(a[2 * i], b[2 * i], -(a[2 * i + 1] * b[2 * i + 1]));
                row[2 * i + 1] = fma(a[2 * i], b[2 * i + 1], a[2 * i + 1] * b[2 * i]);
            }
            for (i = 0; i < n; i++)
                q[i] += row[2 * i] * row[2 * i] + row[2 * i + 1] * row[2 * i + 1];
        }
}

static void split(const double *x, ptrdiff_t m, double *xr, double *xi)
{
    ptrdiff_t i;
    for (i = 0; i < m; i++) {
        xr[2 * i] = x[2 * i];
        xr[2 * i + 1] = -x[2 * i + 1];
        xi[2 * i] = x[2 * i + 1];
        xi[2 * i + 1] = x[2 * i];
    }
}

typedef struct {
    ptrdiff_t n, r;
    const double *fh;
    double *xr, *xi;   /* work space */
} quad_op;

/* x^H Q x = ||t||^2; aux receives t = F^H x (r complex entries), which
   finish() needs */
static double quadratic(const quad_op *op, const double *x, double *aux)
{
    split(x, op->n, op->xr, op->xi);
    row_dots(op->fh, op->r, op->n, op->xr, op->xi, aux);
    return dot(aux, aux, 2 * op->r);
}

/* f(x) = x^H Q x + 2 Re(z^H x), with quadratic()'s aux */
static double evaluate(const quad_op *op, const double *x, const double *z,
                       double *aux)
{
    return quadratic(op, x, aux) + 2.0 * dot(x, z, 2 * op->n);
}

/* y = Q x = F t, from evaluate()'s aux t for the same x: the product
   riemannian_grad() projects */
static const double *finish(const quad_op *op, const double *aux, double *y)
{
    adjoint(op->fh, op->r, op->n, aux, y);
    return y;
}

/* out = Retr(v + step d): entrywise onto the unit circle */
static void retract(const double *v, const double *d, double step,
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

/* out = projection of the ambient gradient 2 (qv + z) at v; rad receives
   its radial parts (n doubles) */
static void riemannian_grad(const double *qv, const double *z,
                            const double *v, ptrdiff_t n, double *out,
                            double *rad)
{
    ptrdiff_t i;
    for (i = 0; i < n; i++) {
        double re = 2.0 * (qv[2 * i] + z[2 * i]);
        double im = 2.0 * (qv[2 * i + 1] + z[2 * i + 1]);
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
static void tangency(const double *a, const double *b, const double *v,
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
static double precondition(const double *q_diag, const double *rad,
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
   factors of F^H and z its linear term (n complex), all read in place
   from the form; work is the caller's work space of work_len doubles, at
   least 2 r n + 26 n + 4 r with r = ka kb; shrink, armijo_c,
   max_backtracks and precond_floor are the irsopt._kernels constants
   both kernels use. */
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
    const int64_t n = a->n, r = a->ka * a->kb, max_iters = a->max_iters;
    const double rel_tol = a->rel_tol, shrink = a->shrink,
        armijo_c = a->armijo_c, h_floor = a->precond_floor;
    double grad_tol = a->grad_tol;
    ptrdiff_t i, m = 2 * (ptrdiff_t)n;
    int64_t it, b, n_done = 0;
    const double *z = a->z;
    double *obj_hist = buf + m, *grad_hist = obj_hist + max_iters + 1,
        *info = grad_hist + max_iters + 1;
    const ptrdiff_t na = 2 * (ptrdiff_t)r;
    double *fh, *v, *qv, *cand, *aux_cand, *v_new, *aux_new, *rgrad,
        *rgrad_new, *pg, *pg_new, *dir, *tmp, *rad, *q_diag;
    double f_cur, gnorm2, gpg, tang_res = 0.0;
    int failed = 0;
    quad_op op;

    if (a->work_len < 2 * r * n + 26 * n + 4 * r)
        return -1;
    /* fh holds the expanded F^H; aux_cand and aux_new hold evaluate()'s
       aux for cand and v_new; qv receives finish()'s product; rad holds
       the gradient's radial parts at v; pg the preconditioned gradient and
       q_diag the diagonal of Q */
    fh = a->work; v = fh + na * n; qv = v + m; cand = qv + m; v_new = cand + m;
    rgrad = v_new + m; rgrad_new = rgrad + m; pg = rgrad_new + m;
    pg_new = pg + m; dir = pg_new + m;
    tmp = dir + m; aux_cand = tmp + m; aux_new = aux_cand + na;
    op.n = n; op.r = r; op.fh = fh;
    op.xr = aux_new + na; op.xi = op.xr + m;
    rad = op.xi + m; q_diag = rad + n;

    for (i = 0; i <= max_iters; i++)
        obj_hist[i] = grad_hist[i] = NAN;
    expand(a->ah, a->bh, a->ka, a->kb, n, fh, q_diag);

    memcpy(v, buf, sizeof(double) * (size_t)m);
    f_cur = evaluate(&op, v, z, aux_new);
    riemannian_grad(finish(&op, aux_new, qv), z, v, n, rgrad, rad);
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

        riemannian_grad(finish(&op, aux_new, qv), z, v_new, n, rgrad_new, rad);
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

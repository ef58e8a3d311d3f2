/* Compiled kernels for the weighted log-concave solver: the two functions
   that logcon.py calls. newton_solve runs the Newton loop on one knot set
   (gradient test, tridiagonal step, ascent fallback, step bound, Armijo
   halving, first blocking knot) in one call; knot_grad_hess evaluates one
   point. Both evaluate points with grad_hess, the formulas of _kernels_py
   (see there for the math and the stability notes) one segment at a time,
   with libm's exp and expm1, and sum left to right, the Armijo slope g.d
   included. The python kernels do the same operations in the same order,
   and setup.py builds this file with -ffp-contract=off, so no multiply-add
   is fused: the two backends agree to the bit.

   Each kernel takes three 1-d float64 arrays, or arguments that convert
   safely to them, on R >= 2 knots: dt of length R - 1, phi and the
   weights of length R. Any other shape raises ValueError naming the
   argument. newton_solve also takes its budget of steps, an integer. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <numpy/arrayobject.h>
#include <math.h>
#include <string.h>

#define SERIES_RADIUS 0.05       /* G2, G3 switch to series inside this |b - a| */
#define VALUE_SERIES_RADIUS 1e-5 /* G1 switches to series inside this |b - a| */
#define TOL_GRAD 1e-8            /* newton_solve's gradient test, _kernels_py's _TOL_GRAD */
#define ARMIJO_C 0.25            /* its Armijo constant, _kernels_py's _ARMIJO_C */

/* series coefficients through eps^8: 1/(k! (k+2)) for G2, 1/(k! (k+3)) for G3 */
static const double G2C[9] = {1.0 / 2, 1.0 / 3, 1.0 / 8, 1.0 / 30, 1.0 / 144,
                              1.0 / 840, 1.0 / 5760, 1.0 / 45360, 1.0 / 403200};
static const double G3C[9] = {1.0 / 3, 1.0 / 4, 1.0 / 10, 1.0 / 36, 1.0 / 168,
                              1.0 / 960, 1.0 / 6480, 1.0 / 50400, 1.0 / 443520};

static double series(const double *coef, double eps)
{
    double acc = coef[8];
    for (int k = 7; k >= 0; k--)
        acc = acc * eps + coef[k];
    return acc;
}

/* G1, G2, G3 at eps = -|b - a|: the integrals of t^(k-1) e^(t eps) over
   [0, 1]. The closed forms share one exp and one expm1. */
static void gfuns(double eps, double *g)
{
    if (fabs(eps) < SERIES_RADIUS) {
        g[0] = fabs(eps) < VALUE_SERIES_RADIUS
                   ? 1.0 + eps * (0.5 + eps * (1.0 / 6.0 + eps * (1.0 / 24.0)))
                   : expm1(eps) / eps;
        g[1] = series(G2C, eps);
        g[2] = series(G3C, eps);
        return;
    }
    double ee = exp(eps), em = expm1(eps);
    g[0] = em / eps;
    g[1] = (eps * ee - em) / (eps * eps);
    g[2] = (eps * eps * ee - 2.0 * (eps * ee - em)) / (eps * eps * eps);
}

#define NARRAYS 3 /* every kernel takes three arrays first */
#define RMIN 2    /* on at least two knots */

/* The arguments of one kernel: NARRAYS arrays, then nargs - NARRAYS
   others. */
typedef struct {
    const char *fn;
    int nargs;
    const char *names[NARRAYS];
    int off[NARRAYS];     /* array i has length r + off[i] */
} Spec;

typedef struct {
    PyArrayObject *arr[NARRAYS];
    const double *p[NARRAYS];
    npy_intp r;           /* the length of phi, the number of knots */
} Args;

static const Spec KNOT_GRAD_HESS = {
    "knot_grad_hess", 3, {"dt", "phi", "weights"}, {-1, 0, 0}};
static const Spec NEWTON_SOLVE = {
    "newton_solve", 4, {"dt", "phi", "weights"}, {-1, 0, 0}};

static void release(Args *a)
{
    for (int i = 0; i < NARRAYS; i++)
        Py_XDECREF(a->arr[i]);
}

/* Fills a from the call's arrays, as C-contiguous float64; -1 with an
   exception set on a wrong count, dtype, shape or length. */
static int load(Args *a, const Spec *s, PyObject *const *args, Py_ssize_t nargs)
{
    memset(a, 0, sizeof *a);
    if (nargs != s->nargs) {
        PyErr_Format(PyExc_TypeError, "%s() takes %d arguments (%zd given)",
                     s->fn, s->nargs, nargs);
        return -1;
    }
    for (int i = 0; i < NARRAYS; i++) {
        a->arr[i] = (PyArrayObject *)PyArray_FROM_OTF(args[i], NPY_DOUBLE,
                                                      NPY_ARRAY_IN_ARRAY);
        if (a->arr[i] == NULL)
            goto fail;
        if (PyArray_NDIM(a->arr[i]) != 1) {
            PyErr_Format(PyExc_ValueError, "%s: %s must be 1-d, got %d dimensions",
                         s->fn, s->names[i], PyArray_NDIM(a->arr[i]));
            goto fail;
        }
        a->p[i] = (const double *)PyArray_DATA(a->arr[i]);
    }
    a->r = PyArray_DIM(a->arr[1], 0);
    if (a->r < RMIN) {
        PyErr_Format(PyExc_ValueError, "%s: %s has length %zd, needs at least %d",
                     s->fn, s->names[1], (Py_ssize_t)a->r, RMIN);
        goto fail;
    }
    for (int i = 0; i < NARRAYS; i++) {
        npy_intp want = a->r + s->off[i], got = PyArray_DIM(a->arr[i], 0);
        if (got != want) {
            PyErr_Format(PyExc_ValueError, "%s: %s has length %zd, expected %zd",
                         s->fn, s->names[i], (Py_ssize_t)got, (Py_ssize_t)want);
            goto fail;
        }
    }
    return 0;
fail:
    release(a);
    return -1;
}

#define ARGS PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs

static PyObject *new_vector(npy_intp n, double **data)
{
    PyObject *out = PyArray_SimpleNew(1, &n, NPY_DOUBLE);
    *data = out == NULL ? NULL : (double *)PyArray_DATA((PyArrayObject *)out);
    return out;
}

/* psi at phi on r knots, with the gradient, the Hessian's diagonal and
   off-diagonal, and mass[i] = dt[i] J(phi[i], phi[i+1]), J = exp(max) G1
   as in _kernels_py; psi sums w phi and the masses left to right. */
static double grad_hess(npy_intp r, const double *dt, const double *phi,
                        const double *w, double *grad, double *hd, double *he,
                        double *mass)
{
    double integral = 0.0, lin = 0.0, g[3];
    for (npy_intp i = 0; i < r; i++)
        lin += w[i] * phi[i];
    memcpy(grad, w, r * sizeof(double));
    memset(hd, 0, r * sizeof(double));
    for (npy_intp i = 0; i < r - 1; i++) {
        double pa = phi[i], pb = phi[i + 1];
        double ehi = exp(pa >= pb ? pa : pb);
        gfuns(-fabs(pb - pa), g);
        /* partials wrt the larger argument (near) and the smaller (far) */
        double near1 = ehi * (g[0] - g[1]), far1 = ehi * g[1];
        double near2 = ehi * (g[0] - 2.0 * g[1] + g[2]), far2 = ehi * g[2];
        int b_hi = pb >= pa;
        mass[i] = dt[i] * (ehi * g[0]);
        integral += mass[i];
        grad[i] -= dt[i] * (b_hi ? far1 : near1);
        grad[i + 1] -= dt[i] * (b_hi ? near1 : far1);
        hd[i] -= dt[i] * (b_hi ? far2 : near2);
        hd[i + 1] -= dt[i] * (b_hi ? near2 : far2);
        he[i] = -dt[i] * (ehi * (g[1] - g[2]));
    }
    return lin - integral + 1.0;
}

static PyObject *knot_grad_hess(ARGS)
{
    Args a;
    double *grad, *hd, *he, *mass;
    if (load(&a, &KNOT_GRAD_HESS, args, nargs) < 0)
        return NULL;
    PyObject *grad_o = new_vector(a.r, &grad), *hd_o = new_vector(a.r, &hd);
    PyObject *he_o = new_vector(a.r - 1, &he), *mass_o = new_vector(a.r - 1, &mass);
    if (grad_o == NULL || hd_o == NULL || he_o == NULL || mass_o == NULL) {
        Py_XDECREF(grad_o);
        Py_XDECREF(hd_o);
        Py_XDECREF(he_o);
        Py_XDECREF(mass_o);
        release(&a);
        return NULL;
    }
    double psi = grad_hess(a.r, a.p[0], a.p[1], a.p[2], grad, hd, he, mass);
    release(&a);
    return Py_BuildValue("(dNNNN)", psi, grad_o, hd_o, he_o, mass_o);
}

/* LDL^T sweep of (-H + delta I) y = grad into y on n knots, with dref and
   lsub as scratch; 0 on a non-positive or non-finite pivot or result. */
static int ldl_solve(npy_intp n, const double *diag, const double *off,
                     const double *grad, double delta, double *dref,
                     double *lsub, double *y)
{
    npy_intp i;
    dref[0] = -diag[0] + delta;
    if (!(dref[0] > 0.0 && isfinite(dref[0])))
        return 0;
    for (i = 0; i < n - 1; i++) {
        double aoff = -off[i];
        lsub[i] = aoff / dref[i];
        dref[i + 1] = -diag[i + 1] + delta - aoff * lsub[i];
        if (!(dref[i + 1] > 0.0 && isfinite(dref[i + 1])))
            return 0;
    }
    memcpy(y, grad, n * sizeof(double));
    for (i = 1; i < n; i++)
        y[i] -= lsub[i - 1] * y[i - 1];
    for (i = 0; i < n; i++)
        y[i] /= dref[i];
    for (i = n - 2; i >= 0; i--)
        y[i] -= lsub[i] * y[i + 1];
    for (i = 0; i < n; i++)
        if (!isfinite(y[i]))
            return 0;
    return 1;
}

/* (-H) y = grad, with delta = 1e-12 (1 + max|diag|) added to -H's
   diagonal, doubling, after a failed sweep; scratch holds 2n doubles.
   -1 with FloatingPointError set when 60 sweeps fail. */
static int newton_step(npy_intp n, const double *hd, const double *he,
                       const double *grad, double *scratch, double *y)
{
    double base = 0.0, delta = 0.0;
    for (npy_intp i = 0; i < n; i++)
        base = fmax(base, fabs(hd[i]));  /* a NaN entry is skipped */
    base = 1e-12 * (1.0 + base);
    for (int attempt = 0; attempt < 60; attempt++) {
        if (ldl_solve(n, hd, he, grad, delta, scratch, scratch + n, y))
            return 0;
        delta = delta == 0.0 ? base : 2.0 * delta;
    }
    PyErr_SetString(PyExc_FloatingPointError,
                    "tridiagonal Newton system could not be stabilized");
    return -1;
}

/* The largest alpha that keeps the slopes of phi + alpha dir nonincreasing,
   INFINITY if none bounds it, with the interior knot that blocks it in
   *block (-1 if none). As _step_bound in _kernels_py: the least ratio of
   the clamped curvature to the direction's, over the knots where the
   direction's is below -1e-300, the first of ties; a NaN ratio frees the
   step. */
static double step_bound(npy_intp r, const double *inv, const double *phi,
                         const double *dir, npy_intp *block)
{
    double alpha = INFINITY;
    *block = -1;
    for (npy_intp j = 0; j + 2 < r; j++) {
        double c_dir = (dir[j + 1] - dir[j]) * inv[j]
                       - (dir[j + 2] - dir[j + 1]) * inv[j + 1];
        if (!(c_dir < -1e-300))
            continue;
        double c = (phi[j + 1] - phi[j]) * inv[j]
                   - (phi[j + 2] - phi[j + 1]) * inv[j + 1];
        double ratio = (c <= 0.0 ? 0.0 : c) / -c_dir;
        if (isnan(ratio)) {
            *block = -1;
            return INFINITY;
        }
        if (ratio < alpha) {
            alpha = ratio;
            *block = j + 1;  /* constraint j sits at interior knot j + 1 */
        }
    }
    return alpha;
}

static double inner(npy_intp n, const double *a, const double *b)
{
    double acc = 0.0;
    for (npy_intp i = 0; i < n; i++)
        acc += a[i] * b[i];
    return acc;
}

/* One knot set's point: psi with its derivatives and segment masses. */
typedef struct {
    double psi, *grad, *hd, *he, *mass;
} Point;

/* (phi, mass, stalled, block, steps, evals): Newton's method with Armijo
   backtracking from phi, as newton_solve in _kernels_py, which documents
   it. */
static PyObject *newton_solve(ARGS)
{
    Args a;
    if (load(&a, &NEWTON_SOLVE, args, nargs) < 0)
        return NULL;
    Py_ssize_t max_steps = PyNumber_AsSsize_t(args[3], PyExc_OverflowError);
    if (max_steps == -1 && PyErr_Occurred()) {
        release(&a);
        return NULL;
    }
    npy_intp r = a.r;
    const double *dt = a.p[0], *w = a.p[2];
    /* per knot: p, cand, step, two points' grad and hd, and 2 for the
       sweep; per segment: inv and two points' he and mass */
    double *buf = PyMem_Malloc((9 * r + 5 * (r - 1)) * sizeof(double));
    if (buf == NULL) {
        release(&a);
        return PyErr_NoMemory();
    }
    double *p = buf, *cand = p + r, *step = cand + r, *scratch = step + r;
    double *inv = scratch + 2 * r;
    Point cur = {0.0, inv + (r - 1), NULL, NULL, NULL}, trial = cur;
    cur.hd = cur.grad + r;
    trial.grad = cur.hd + r;
    trial.hd = trial.grad + r;
    cur.he = trial.hd + r;
    cur.mass = cur.he + (r - 1);
    trial.he = cur.mass + (r - 1);
    trial.mass = trial.he + (r - 1);

    for (npy_intp i = 0; i < r - 1; i++)
        inv[i] = 1.0 / dt[i];
    memcpy(p, a.p[1], r * sizeof(double));
    cur.psi = grad_hess(r, dt, p, w, cur.grad, cur.hd, cur.he, cur.mass);
    Py_ssize_t steps = 0, evals = 1;
    npy_intp block = -1;
    int stalled = 0;
    while (steps < max_steps) {
        npy_intp i = 0;
        while (i < r && fabs(cur.grad[i]) <= TOL_GRAD)
            i++;
        if (i == r)
            break;
        steps++;
        if (newton_step(r, cur.hd, cur.he, cur.grad, scratch, step) < 0) {
            PyMem_Free(buf);
            release(&a);
            return NULL;
        }
        double slope = inner(r, cur.grad, step);
        if (!(0.0 < slope && slope < INFINITY)) {
            memcpy(step, cur.grad, r * sizeof(double));  /* ascent fallback */
            slope = inner(r, cur.grad, cur.grad);
        }
        npy_intp j_block;
        double alpha_bar = step_bound(r, inv, p, step, &j_block);
        double alpha = alpha_bar < 1.0 ? alpha_bar : 1.0;
        if (alpha_bar > 1e-300) {  /* else blocked at once: activate without moving */
            while (alpha > 1e-16) {
                for (i = 0; i < r; i++)
                    cand[i] = step[i] * alpha + p[i];
                trial.psi = grad_hess(r, dt, cand, w, trial.grad, trial.hd,
                                      trial.he, trial.mass);
                evals++;
                if (trial.psi >= cur.psi + ARMIJO_C * alpha * slope)
                    break;
                alpha *= 0.5;
            }
            if (!(alpha > 1e-16) || (trial.psi <= cur.psi && alpha != alpha_bar)) {
                stalled = 1;  /* no alpha improves, or no gain in psi: not taken */
                break;
            }
            double *swap = p;
            p = cand;
            cand = swap;
            Point held = cur;
            cur = trial;
            trial = held;
        }
        if (alpha == alpha_bar) {
            block = j_block;  /* boundary hit: this constraint turns active */
            break;
        }
    }
    release(&a);
    double *phi_out, *mass_out;
    PyObject *phi_o = new_vector(r, &phi_out), *mass_o = new_vector(r - 1, &mass_out);
    if (phi_o == NULL || mass_o == NULL) {
        Py_XDECREF(phi_o);
        Py_XDECREF(mass_o);
        PyMem_Free(buf);
        return NULL;
    }
    memcpy(phi_out, p, r * sizeof(double));
    memcpy(mass_out, cur.mass, (r - 1) * sizeof(double));
    PyMem_Free(buf);
    if (block < 0)
        return Py_BuildValue("(NNOOnn)", phi_o, mass_o, stalled ? Py_True : Py_False,
                             Py_None, steps, evals);
    return Py_BuildValue("(NNOnnn)", phi_o, mass_o, stalled ? Py_True : Py_False,
                         (Py_ssize_t)block, steps, evals);
}

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    KERNEL(knot_grad_hess,
           "knot_grad_hess(dt, phi, weights) -> (psi, grad, hd, he, mass)."),
    KERNEL(newton_solve,
           "newton_solve(dt, phi, weights, max_steps) -> "
           "(phi, mass, stalled, block, steps, evals)."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "logconmix._kernels_c",
    .m_doc = "Compiled kernels for the weighted log-concave solver.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernels_c(void)
{
    import_array();
    return PyModule_Create(&module);
}

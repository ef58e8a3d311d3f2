/* Compiled kernels for the weighted log-concave solver: the two functions
   that logcon.py calls at every Newton point. They use the formulas of
   _kernels_py (see there for the math and the stability notes) one segment
   at a time, with libm's exp and expm1, and sum left to right; so they agree
   with the python backend to rounding, not to the bit.

   Each kernel takes three 1-d float64 arrays, or arguments that convert
   safely to them, on R >= 2 knots: dt and hess_off have length R - 1 and
   the rest length R. Any other shape raises ValueError naming the
   argument. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <numpy/arrayobject.h>
#include <math.h>
#include <string.h>

#define SERIES_RADIUS 0.05       /* G2, G3 switch to series inside this |b - a| */
#define VALUE_SERIES_RADIUS 1e-5 /* G1 switches to series inside this |b - a| */

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

#define NARGS 3 /* every kernel takes three arrays */
#define RMIN 2  /* on at least two knots */

/* The arguments of one kernel, as C-contiguous float64 arrays. */
typedef struct {
    const char *fn;
    int ref;              /* the argument whose length is r */
    const char *names[NARGS];
    int off[NARGS];       /* argument i has length r + off[i] */
} Spec;

typedef struct {
    PyArrayObject *arr[NARGS];
    const double *p[NARGS];
    npy_intp r;
} Args;

static const Spec KNOT_GRAD_HESS = {
    "knot_grad_hess", 1, {"dt", "phi", "weights"}, {-1, 0, 0}};
static const Spec SOLVE_NEWTON_STEP = {
    "solve_newton_step", 0, {"hess_diag", "hess_off", "grad"}, {0, -1, 0}};

static void release(Args *a)
{
    for (int i = 0; i < NARGS; i++)
        Py_XDECREF(a->arr[i]);
}

/* Releases the arguments and the outputs made so far; NULL to return. */
static PyObject *drop(Args *a, PyObject *o1, PyObject *o2, PyObject *o3)
{
    Py_XDECREF(o1);
    Py_XDECREF(o2);
    Py_XDECREF(o3);
    release(a);
    return NULL;
}

/* Fills a from the call's arguments; -1 with an exception set on a wrong
   count, dtype, shape or length. */
static int load(Args *a, const Spec *s, PyObject *const *args, Py_ssize_t nargs)
{
    memset(a, 0, sizeof *a);
    if (nargs != NARGS) {
        PyErr_Format(PyExc_TypeError, "%s() takes %d arguments (%zd given)",
                     s->fn, NARGS, nargs);
        return -1;
    }
    for (int i = 0; i < NARGS; i++) {
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
    a->r = PyArray_DIM(a->arr[s->ref], 0);
    if (a->r < RMIN) {
        PyErr_Format(PyExc_ValueError, "%s: %s has length %zd, needs at least %d",
                     s->fn, s->names[s->ref], (Py_ssize_t)a->r, RMIN);
        goto fail;
    }
    for (int i = 0; i < NARGS; i++) {
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

static double linear_term(const Args *a)
{
    double lin = 0.0;
    for (npy_intp i = 0; i < a->r; i++)
        lin += a->p[2][i] * a->p[1][i];
    return lin;
}

/* (psi, grad, hess_diag, hess_off, mass), with mass[i] = dt[i] J(phi[i],
   phi[i+1]), J = exp(max) G1 as in _kernels_py; psi sums mass left to
   right. */
static PyObject *knot_grad_hess(ARGS)
{
    Args a;
    double *grad, *hd, *he, *mass, g[3];
    if (load(&a, &KNOT_GRAD_HESS, args, nargs) < 0)
        return NULL;
    const double *dt = a.p[0], *phi = a.p[1];
    PyObject *grad_o = new_vector(a.r, &grad), *hd_o = new_vector(a.r, &hd);
    PyObject *he_o = new_vector(a.r - 1, &he), *mass_o = new_vector(a.r - 1, &mass);
    if (grad_o == NULL || hd_o == NULL || he_o == NULL || mass_o == NULL) {
        Py_XDECREF(mass_o);
        return drop(&a, grad_o, hd_o, he_o);
    }
    memcpy(grad, a.p[2], a.r * sizeof(double));
    memset(hd, 0, a.r * sizeof(double));
    double integral = 0.0, lin = linear_term(&a);
    for (npy_intp i = 0; i < a.r - 1; i++) {
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
    release(&a);
    return Py_BuildValue("(dNNNN)", lin - integral + 1.0, grad_o, hd_o, he_o, mass_o);
}

/* LDL^T sweep of (-H + delta I) y = grad into y, with dref and lsub as
   scratch; 0 on a non-positive or non-finite pivot or result. */
static int ldl_solve(const Args *a, double delta, double *dref, double *lsub, double *y)
{
    const double *diag = a->p[0], *off = a->p[1];
    npy_intp n = a->r, i;
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
    memcpy(y, a->p[2], n * sizeof(double));
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

static PyObject *solve_newton_step(ARGS)
{
    Args a;
    double *y, *scratch, base = 0.0, delta = 0.0;
    if (load(&a, &SOLVE_NEWTON_STEP, args, nargs) < 0)
        return NULL;
    PyObject *res = new_vector(a.r, &y), *tmp = new_vector(2 * a.r, &scratch);
    if (res == NULL || tmp == NULL)
        return drop(&a, res, tmp, NULL);
    for (npy_intp i = 0; i < a.r; i++)
        base = fmax(base, fabs(a.p[0][i]));  /* a NaN entry is skipped */
    base = 1e-12 * (1.0 + base);
    int ok = 0;
    for (int attempt = 0; attempt < 60 && !ok; attempt++) {
        ok = ldl_solve(&a, delta, scratch, scratch + a.r, y);
        delta = delta == 0.0 ? base : 2.0 * delta;
    }
    if (!ok)
        PyErr_SetString(PyExc_FloatingPointError,
                        "tridiagonal Newton system could not be stabilized");
    drop(&a, tmp, ok ? NULL : res, NULL);
    return ok ? res : NULL;
}

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    KERNEL(knot_grad_hess,
           "knot_grad_hess(dt, phi, weights) -> (psi, grad, hd, he, mass)."),
    KERNEL(solve_newton_step, "solve_newton_step(hd, he, grad): d with (-H) d = grad."),
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

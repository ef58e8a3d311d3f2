"""Reference kernels for the weighted log-concave solver.

This module is the reference implementation of the two kernels that the
solver in ``logcon`` calls at every Newton point, ``knot_grad_hess`` and
``solve_newton_step``; the C extension built from ``_kernels_c.c``
implements the same two with the same formulas. ``knot_grad_hess`` also
returns the segment masses, from which ``logcon`` forms the objective at a
trial point as ``knot_objective`` does. ``segment_integrals``, which
``logcon.cdf`` calls on every backend to evaluate a finished fit, has no
compiled twin; nor have ``knot_objective`` (which ``logcon.objective``
calls), ``integral_grad_terms`` and the other per-point kernels at the end
of the module, which stay as test oracles and for the benchmark's tracer.

Central object: the exponential-segment integral

    J(a, b) = integral_0^1 exp((1-t) a + t b) dt = (e^b - e^a) / (b - a)

and its first and second partial derivatives. A piecewise-linear phi on
points t_0 < ... < t_R has integral(e^phi) = sum_j (t_{j+1}-t_j) J(phi_j,
phi_{j+1}), so these six numbers per segment assemble the objective,
gradient, and (tridiagonal) Hessian of the fitting problem.

Stability notes, used identically in both backends:
- values and partials are anchored at max(a, b), so the G-functions below
  are always evaluated at eps = -|b - a| <= 0 and stay in (0, 1]; overflow
  can then only happen when exp(max(a, b)) itself overflows.
- G1(eps) = expm1(eps)/eps is cancellation-free as written.
- G2, G3 (the t- and t^2-moments of e^{t eps}) cancel at the eps^2/2 and
  eps^3/3 level, so closed forms lose ~eps_mach/|eps| relative accuracy;
  a truncated series (terms through eps^8) is used for |eps| < 0.05, which
  keeps worst-case relative error around 1e-12 across the seam.
- the value itself follows the tighter contract: series (terms through
  eps^3) only for |b - a| < 1e-5, the expm1 form otherwise.
- one Horner routine, ``_series``, evaluates these three series and
  ``logcon``'s hinge tail, on floats and on arrays.

Two layouts of the same formulas:
- ``knot_grad_hess`` works on the R - 1 segments of one knot set, and the
  solver calls it at every Newton point. R is small (about 6 in a
  Monte-Carlo M-step, about 16 at n = 1e5), and one numpy call (~0.5-1 us)
  costs about as much as the ~40 flops of a whole segment. It therefore
  runs one segment at a time on Python floats, at about 1.5-2 us per
  segment, with a few numpy calls per kernel call. It is the only place
  where J's partials are formed: ``integral_grad_terms`` reads its
  gradient.
- J's value alone (``j_values``, and ``segment_integrals`` and
  ``knot_objective`` through it) takes arrays of any shape, one numpy call
  per step of the formula for all entries.

Both layouts give the bits of the oracle in ``tests/test_kernels.py``,
which evaluates one G-function per moment on whole arrays:
- exp and expm1 stay numpy calls, one each per kernel call with every
  argument stacked: numpy's exp and expm1 differ from ``math.exp`` and
  ``math.expm1`` on a few percent of arguments, and numpy's value for an
  entry depends neither on the array's length nor on the entry's position.
- Sums over segments stay ``ndarray.dot`` and ``ndarray.sum`` on arrays:
  BLAS and numpy's pairwise summation do not add left to right.
- + - * / and comparisons on finite Python floats round as numpy's float64
  does, so every expression keeps numpy's order of operations, and
  ``0.0 - x`` stands where numpy subtracts from zeros, which keeps the sign
  of a zero.
- Python raises ZeroDivisionError where numpy returns inf, so the float
  code divides only by values that cannot be zero: the closed forms run at
  |eps| >= 1e-5 only.
"""

from __future__ import annotations

import math

import numpy as np

_SERIES_RADIUS = 0.05  # G2, G3 switch to series inside this |b - a|
_VALUE_SERIES_RADIUS = 1e-5  # G1 switches to series inside this |b - a|

# series coefficients, lowest power first: G1_k = 1/(k+1)! through eps^3,
# G2_k = 1/(k! (k+2)) and G3_k = 1/(k! (k+3)) through eps^8
_G1_COEF = [1.0 / math.factorial(k + 1) for k in range(4)]
_G2_COEF = [1.0 / (math.factorial(k) * (k + 2)) for k in range(9)]
_G3_COEF = [1.0 / (math.factorial(k) * (k + 3)) for k in range(9)]

# (names, the argument whose length R sets the others, their offsets from
# R) of the knot kernels' arguments, as _kernels_c.c checks them
_KNOT_ARGS = (("dt", "phi", "weights"), 1, (-1, 0, 0))
_NEWTON_ARGS = (("hess_diag", "hess_off", "grad"), 0, (0, -1, 0))


def _series(coef, eps):
    """sum_k coef[k] eps^k by Horner's rule, coefficients lowest power
    first; on a float or elementwise on an array. On an array, the steps
    after the first update its result in place: at n = 1e5 about 20000
    points fall inside the hinge tail's radius, and a fresh array per step
    costs page faults."""
    acc = coef[-1] * eps + coef[-2]
    for c in coef[-3::-1]:
        acc *= eps
        acc += c
    return acc


def _vectors(fn, spec, args):
    """``args`` as 1-d float64 arrays of the lengths ``spec`` gives; a
    ValueError naming the argument otherwise, worded as in _kernels_c.c.
    Both specs take three arguments, whose joined shapes are then the three
    lengths exactly when each argument is 1-d."""
    names, ref, offsets = spec
    o0, o1, o2 = offsets
    a, b, c = out = [np.asarray(v, dtype=float) for v in args]
    r = out[ref].size
    if r >= 2 and a.shape + b.shape + c.shape == (r + o0, r + o1, r + o2):
        return out
    for name, v in zip(names, out):
        if v.ndim != 1:
            raise ValueError(f"{fn}: {name} must be 1-d, got {v.ndim} dimensions")
    if r < 2:
        raise ValueError(f"{fn}: {names[ref]} has length {r}, needs at least 2")
    name, v, off = next(t for t in zip(names, out, offsets) if t[1].size != r + t[2])
    raise ValueError(f"{fn}: {name} has length {v.size}, expected {r + off}")


def j_values(a, b):
    """Elementwise J(a, b), of the broadcast shape of a, b; symmetric in its
    arguments.

    With ehi = exp(max(a, b)) and ``gk = integral_0^1 t^(k-1) e^{t eps} dt``
    at ``eps = -|b - a|``: J = ehi g1. G1's series overwrites its closed
    form inside its radius; a call with no entry there skips it.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    if not shape:
        a, b = a.reshape(1), b.reshape(1)  # 0-d inputs run as one entry
    hi = np.maximum(a, b)
    eps = np.minimum(a, b)
    eps -= hi  # -|b - a| to the bit, up to the sign of a zero
    near = eps > -_VALUE_SERIES_RADIUS  # empty in nearly every call
    e1 = None
    if np.count_nonzero(near):
        e1 = eps[near]
        eps[near] = 1.0
    g1 = np.expm1(eps)
    g1 /= eps
    if e1 is not None:
        g1[near] = _series(_G1_COEF, e1)
    g1 *= np.exp(hi)
    return g1.reshape(shape) if shape else g1[0]


def segment_integrals(dx, pa, pb):
    """Per-segment integral of e^phi: dx_j * J(pa_j, pb_j), broadcast."""
    return np.asarray(dx, dtype=float) * j_values(pa, pb)


def knot_objective(dt, phi, weights) -> float:
    """psi = sum(W phi) - integral(e^phi) + 1 on the knot grid, from the
    segment masses, which have the bits of ``knot_grad_hess``'s."""
    dt, phi, weights = _vectors("knot_objective", _KNOT_ARGS, (dt, phi, weights))
    return (float(weights.dot(phi))
            - float(segment_integrals(dt, phi[:-1], phi[1:]).sum()) + 1.0)


def knot_grad_hess(dt, phi, weights):
    """Objective, gradient, tridiagonal Hessian and segment masses on the
    knot grid.

    Returns ``(psi, grad, hess_diag, hess_off, mass)`` where the Hessian of
    psi is symmetric tridiagonal with diagonal ``hess_diag`` (length R) and
    off-diagonal ``hess_off`` (length R-1). It is negative definite.
    ``mass`` holds dt_j J(phi_j, phi_{j+1}), the bits of
    ``segment_integrals(dt, phi[:-1], phi[1:])``, so that
    ``float(weights.dot(phi)) - float(mass.sum()) + 1.0`` is
    ``knot_objective`` to the bit.

    Per segment: with ehi = exp(max(a, b)) and gk as in ``j_values``, J =
    ehi g1; the partials wrt the smaller argument are ehi g2 and ehi g3,
    those wrt the larger ehi (g1 - g2) and ehi ((g1 - 2 g2) + g3), and
    d2J/dadb = ehi (g2 - g3). Knot i takes the terms of segment i before
    those of segment i - 1, in the order of the array code it replaced.
    """
    dt, phi, weights = _vectors("knot_grad_hess", _KNOT_ARGS, (dt, phi, weights))
    p = phi.tolist()
    q = p[1:]
    hi = []
    eps = []
    for a, b in zip(p, q):  # max(a, b) and -|b - a| as min - max
        if b < a:
            hi.append(a)
            eps.append(b - a)
        else:
            hi.append(b)
            eps.append(a - b)
    closed = [e for e in eps if not e > -_SERIES_RADIUS]  # G2, G3 closed forms
    ex = np.exp(hi + closed).tolist()
    ehi, ee = ex[:len(hi)], iter(ex[len(hi):])
    em = iter(np.expm1([e for e in eps if not e > -_VALUE_SERIES_RADIUS]).tolist())
    w = weights.tolist()
    jv = []
    mass = []
    grad = []
    hd = []
    he = []
    carry_g = carry_h = 0.0  # segment i - 1's terms at knot i; x - 0.0 is x
    # one pass per segment; the last knot's weight is taken after it
    for a, b, e, x, d, wi in zip(p, q, eps, ehi, dt.tolist(), w):
        if e > -_SERIES_RADIUS:
            g1 = _series(_G1_COEF, e) if e > -_VALUE_SERIES_RADIUS else next(em) / e
            g2 = _series(_G2_COEF, e)
            g3 = _series(_G3_COEF, e)
        else:
            m = next(em)
            y = next(ee)
            g1 = m / e
            num = e * y - m
            ss = e * e
            g2 = num / ss
            g3 = (ss * y - 2.0 * num) / (ss * e)
        j = g1 * x
        jv.append(j)
        mass.append(d * j)
        near1 = (g1 - g2) * x * d
        far1 = g2 * x * d
        near2 = (g1 - g2 * 2.0 + g3) * x * d
        far2 = g3 * x * d
        if b < a:
            grad.append(wi - near1 - carry_g)
            hd.append(0.0 - near2 - carry_h)
            carry_g, carry_h = far1, far2
        else:
            grad.append(wi - far1 - carry_g)
            hd.append(0.0 - far2 - carry_h)
            carry_g, carry_h = near1, near2
        he.append(-((g2 - g3) * x * d))
    grad.append(w[-1] - carry_g)
    hd.append(0.0 - carry_h)
    psi = float(weights.dot(phi)) - float(dt.dot(np.array(jv))) + 1.0
    return psi, np.array(grad), np.array(hd), np.array(he), np.array(mass)


def solve_newton_step(hess_diag, hess_off, grad):
    """Solve (-H) d = grad for the ascent direction d.

    -H is symmetric tridiagonal and positive definite in exact arithmetic.
    If the LDL^T sweep hits a non-positive or non-finite pivot (possible when
    a segment's density mass underflows), the diagonal is regularized by
    delta = 1e-12 * (1 + max|diag|), doubling until the sweep succeeds.
    """
    hess_diag, hess_off, grad = _vectors("solve_newton_step", _NEWTON_ARGS,
                                         (hess_diag, hess_off, grad))
    adiag = (-hess_diag).tolist()
    aoff = (-hess_off).tolist()
    rhs = grad.tolist()
    delta = 0.0
    for _ in range(60):
        d = _ldl_tridiag_solve([v + delta for v in adiag] if delta else adiag,
                               aoff, rhs)
        if d is not None:
            return d
        delta = 2.0 * delta if delta else 1e-12 * (1.0 + float(np.max(np.abs(adiag))))
    raise FloatingPointError("tridiagonal Newton system could not be stabilized")


def _ldl_tridiag_solve(diag, off, rhs):
    """LDL^T solve of the tridiagonal system, given as lists; None on a bad
    pivot or result.

    The recurrences are serial, so they run on Python floats: the same IEEE
    double operations, in the same order, as on numpy scalars.
    """
    n = len(diag)
    piv = diag[0]
    if not (piv > 0.0 and math.isfinite(piv)):
        return None
    dref = [piv]
    lsub = []
    for i in range(n - 1):
        lo = off[i] / piv
        piv = diag[i + 1] - off[i] * lo
        if not (piv > 0.0 and math.isfinite(piv)):
            return None
        lsub.append(lo)
        dref.append(piv)
    y = list(rhs)
    for i in range(1, n):
        y[i] -= lsub[i - 1] * y[i - 1]
    y = [v / d for v, d in zip(y, dref)]
    for i in range(n - 2, -1, -1):
        y[i] -= lsub[i] * y[i + 1]
    if not all(map(math.isfinite, y)):
        return None
    return np.array(y)


# The four per-point kernels below are not called by logcon, which does this
# work on its point grid (``logcon._KnotSet`` and ``logcon._kkt_state``);
# they are that code's test oracle (tests/test_workspace.py).


def interp_to_points(x, knot_idx, phi_knots):
    """Evaluate the piecewise-linear phi (knots at x[knot_idx]) at every x."""
    x = np.asarray(x, dtype=float)
    t = x[knot_idx]
    seg = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    dt = t[seg + 1] - t[seg]
    frac = (x - t[seg]) / dt
    out = phi_knots[seg] + frac * (phi_knots[seg + 1] - phi_knots[seg])
    out[knot_idx] = phi_knots  # knots exact, immune to lerp roundoff
    return out


def aggregate_weights(x, w, knot_idx):
    """Collapse point weights onto knots by linear interpolation shares."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    t = x[knot_idx]
    seg = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    frac = (x - t[seg]) / (t[seg + 1] - t[seg])
    out = np.zeros(len(t))
    np.add.at(out, seg, w * (1.0 - frac))
    np.add.at(out, seg + 1, w * frac)
    return out


def integral_grad_terms(x, phi_all):
    """d(integral e^phi)/d(phi_i) on the full point grid: the gradient of
    ``knot_grad_hess`` at zero weights, negated as 0.0 - g so that a zero
    term stays +0.0."""
    phi_all = np.asarray(phi_all, dtype=float)
    return 0.0 - knot_grad_hess(np.diff(x), phi_all, np.zeros(phi_all.size))[1]


def multipliers(x, grad_full):
    """Concavity-constraint multipliers from the full gradient.

    With constraints c_i = slope(i-1,i) - slope(i,i+1) >= 0 the KKT
    stationarity condition g = -C^T lambda inverts in closed form:
    lambda_{k+1} = lambda_k + (x_{k+1}-x_k) * sum_{j<=k} g_j, lambda_0 = 0.
    Entries at interior points are the multipliers; lambda at both endpoints
    is structurally zero (index 0 by construction, index m-1 approximately at
    a stationary point).
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(grad_full, dtype=float)
    partial = np.cumsum(g)[:-1]
    lam = np.concatenate(([0.0], np.cumsum(np.diff(x) * partial)))
    return lam

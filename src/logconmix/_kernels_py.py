"""Reference kernels for the weighted log-concave solver.

This module is the reference implementation of the two kernels that the
solver in ``logcon`` calls at every Newton point, ``knot_grad_hess`` and
``solve_newton_step``; the C extension built from ``_kernels_c.c``
implements the same two with the same operations in the same order, so the
two backends return the same bits. ``knot_grad_hess`` also returns the
segment masses, from which ``logcon`` forms the objective at a trial point
by ``knot_objective``'s formula. ``segment_integrals``, which
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
  can then only happen when exp(max(a, b)) itself overflows, which gives
  inf.
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
  costs about as much as the ~40 flops of a whole segment, so it runs one
  segment at a time on Python floats. It is a line-for-line twin of the C
  kernel and returns its bits:
  - ``math.exp`` and ``math.expm1`` call the C library's exp and expm1,
    as the C does. Where exp overflows, ``math.exp`` raises OverflowError
    and the C's exp gives inf; the python kernel then takes inf.
  - + - * / and comparisons on Python floats are the C's double
    operations; every expression keeps the C's order of operations, and
    the build keeps the compiler from fusing a multiply and an add
    (``-ffp-contract=off`` in setup.py).
  - Sums run left to right in explicit loops, as the C's do: the builtin
    ``sum`` compensates its rounding on Python >= 3.12, and ``ndarray.dot``
    and ``ndarray.sum`` do not add left to right.
  - Python raises ZeroDivisionError where C returns inf, so the float code
    divides only by values that cannot be zero: by eps only where
    |eps| >= 1e-5.
  It is the only place where J's partials are formed: ``integral_grad_terms``
  reads its gradient.
- J's value alone (``j_values``, and ``segment_integrals`` and
  ``knot_objective`` through it) takes arrays of any shape, one numpy call
  per step of the formula for all entries, with numpy's exp and expm1 and
  numpy's sums. These give the bits of the array oracle in
  ``tests/test_kernels.py`` and agree with ``knot_grad_hess``'s masses to
  about 1e-13.
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
    segment masses of ``segment_integrals``, which agree with
    ``knot_grad_hess``'s to rounding."""
    dt, phi, weights = _vectors("knot_objective", _KNOT_ARGS, (dt, phi, weights))
    return (float(weights.dot(phi))
            - float(segment_integrals(dt, phi[:-1], phi[1:]).sum()) + 1.0)


def knot_grad_hess(dt, phi, weights):
    """Objective, gradient, tridiagonal Hessian and segment masses on the
    knot grid.

    Returns ``(psi, grad, hess_diag, hess_off, mass)`` where the Hessian of
    psi is symmetric tridiagonal with diagonal ``hess_diag`` (length R) and
    off-diagonal ``hess_off`` (length R-1). It is negative definite.
    ``mass`` holds dt_j J(phi_j, phi_{j+1}), and psi is
    ``sum(W phi) - sum(mass) + 1`` with both sums taken left to right.

    Per segment: with ehi = exp(max(a, b)) and gk as in ``j_values``, J =
    ehi g1; the partials wrt the smaller argument are ehi g2 and ehi g3,
    those wrt the larger ehi (g1 - g2) and ehi ((g1 - 2 g2) + g3), and
    d2J/dadb = ehi (g2 - g3). The gradient starts from the weights and the
    Hessian diagonal from zeros, and each segment subtracts its terms from
    its two knots, so knot i takes segment i - 1's terms before segment
    i's. Every operation is that of ``knot_grad_hess`` in _kernels_c.c, in
    its order.
    """
    dt, phi, weights = _vectors("knot_grad_hess", _KNOT_ARGS, (dt, phi, weights))
    p = phi.tolist()
    grad = weights.tolist()  # the weights, until the segment loop subtracts
    lin = 0.0
    for wi, x in zip(grad, p):
        lin += wi * x
    hd = [0.0] * len(p)
    he = []
    mass = []
    integral = 0.0
    for i, d in enumerate(dt.tolist()):
        a = p[i]
        b = p[i + 1]
        try:
            ehi = math.exp(a if a >= b else b)
        except OverflowError:  # libm's exp gives inf
            ehi = math.inf
        eps = -abs(b - a)
        if eps > -_SERIES_RADIUS:
            g1 = (_series(_G1_COEF, eps) if eps > -_VALUE_SERIES_RADIUS
                  else math.expm1(eps) / eps)
            g2 = _series(_G2_COEF, eps)
            g3 = _series(_G3_COEF, eps)
        else:
            ee = math.exp(eps)
            em = math.expm1(eps)
            g1 = em / eps
            g2 = (eps * ee - em) / (eps * eps)
            g3 = (eps * eps * ee - 2.0 * (eps * ee - em)) / (eps * eps * eps)
        # partials wrt the larger argument (near) and the smaller (far)
        near1 = ehi * (g1 - g2)
        far1 = ehi * g2
        near2 = ehi * (g1 - 2.0 * g2 + g3)
        far2 = ehi * g3
        m = d * (ehi * g1)
        mass.append(m)
        integral += m
        if b >= a:
            grad[i] -= d * far1
            grad[i + 1] -= d * near1
            hd[i] -= d * far2
            hd[i + 1] -= d * near2
        else:
            grad[i] -= d * near1
            grad[i + 1] -= d * far1
            hd[i] -= d * near2
            hd[i + 1] -= d * far2
        he.append(-d * (ehi * (g2 - g3)))
    return lin - integral + 1.0, np.array(grad), np.array(hd), np.array(he), np.array(mass)


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

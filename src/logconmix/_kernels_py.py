"""Reference kernels for the weighted log-concave solver.

This module is the reference implementation of the five kernels that
``logcon`` calls (``j_values``, ``segment_integrals``, ``knot_objective``,
``knot_grad_hess`` and ``solve_newton_step``); the C extension built from
``_kernels_c.c`` implements the same five with the same formulas.

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
- the value itself follows the tighter contract: series only for
  |b - a| < 1e-5, the expm1 form otherwise.

Two layouts of the same formulas:
- The knot kernels (``knot_objective``, ``knot_grad_hess``, and
  ``segment_integrals`` on 1-d arguments) work on the R - 1 segments of one
  knot set, and the solver calls them at every Newton step. R is small
  (about 6 in a Monte-Carlo M-step, about 16 at n = 1e5), and one numpy
  call (~0.5-1 us) costs about as much as the ~40 flops of a whole segment.
  These kernels therefore run one segment at a time on Python floats, at
  about 1.5-2 us per segment, with a few numpy calls per kernel call.
- ``j_values``, ``segment_integrals`` on any other shape, and the
  per-point ``integral_grad_terms`` take arrays of any shape through
  ``_parts``, one numpy call per step of the formulas for all entries.

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

# series coefficients through eps^8: G2_k = 1/(k! (k+2)), G3_k = 1/(k! (k+3))
_G2_COEF = [1.0 / (math.factorial(k) * (k + 2)) for k in range(9)]
_G3_COEF = [1.0 / (math.factorial(k) * (k + 3)) for k in range(9)]

# (names, the argument whose length R sets the others, their offsets from
# R) of the knot kernels' arguments, as _kernels_c.c checks them
_KNOT_ARGS = (("dt", "phi", "weights"), 1, (-1, 0, 0))
_NEWTON_ARGS = (("hess_diag", "hess_off", "grad"), 0, (0, -1, 0))


def _g1_series(eps):
    """G1 inside its radius; on a float or elementwise on an array."""
    return 1.0 + eps * (0.5 + eps * (1.0 / 6.0 + eps * (1.0 / 24.0)))


def _series(coef, eps):
    """sum_k coef[k] eps^k by Horner's rule; on a float or an array."""
    acc = coef[8] * eps + coef[7]
    for c in coef[6::-1]:
        acc = acc * eps + c
    return acc


def _vectors(fn, spec, args):
    """``args`` as 1-d float64 arrays of the lengths ``spec`` gives; a
    ValueError naming the argument otherwise, worded as in _kernels_c.c."""
    names, ref, offsets = spec
    out = [np.asarray(v, dtype=float) for v in args]
    r = out[ref].size
    if r >= 2 and [v.shape for v in out] == [(r + off,) for off in offsets]:
        return out
    for name, v in zip(names, out):
        if v.ndim != 1:
            raise ValueError(f"{fn}: {name} must be 1-d, got {v.ndim} dimensions")
    if r < 2:
        raise ValueError(f"{fn}: {names[ref]} has length {r}, needs at least 2")
    name, v, off = next(t for t in zip(names, out, offsets) if t[1].size != r + t[2])
    raise ValueError(f"{fn}: {name} has length {v.size}, expected {r + off}")


def _orient(pa, pb):
    """For each pair of floats: max(a, b), eps = -|b - a| as
    min(a, b) - max(a, b), and whether b < a (the partials then swap)."""
    hi = []
    eps = []
    swap = []
    for a, b in zip(pa, pb):
        if b < a:
            hi.append(a)
            eps.append(b - a)
            swap.append(True)
        else:
            hi.append(b)
            eps.append(a - b)
            swap.append(False)
    return hi, eps, swap


def _integrals(dx, pa, pb):
    """dx * J(a, b) at each triple of floats, as a list."""
    hi, eps, _ = _orient(pa, pb)
    ehi = np.exp(hi).tolist()
    closed = [e for e in eps if not e > -_VALUE_SERIES_RADIUS]
    em = iter(np.expm1(closed).tolist() if closed else ())
    return [d * ((_g1_series(e) if e > -_VALUE_SERIES_RADIUS else next(em) / e) * x)
            for d, e, x in zip(dx, eps, ehi)]


def _parts(a, b, order):
    """J, and for ``order`` 2 its first partials, stacked along a new first
    axis: rows (J,) for ``order`` 1 and (J, dJ/da, dJ/db) for 2, each of the
    broadcast shape of a, b.

    With ehi = exp(max(a, b)) and ``gk = integral_0^1 t^(k-1) e^{t eps} dt``
    at ``eps = -|b - a|``: J = ehi g1, the partial wrt the smaller argument
    is ehi g2 and that wrt the larger ehi (g1 - g2). The series overwrite the
    closed forms inside their radius; a call with none there skips them.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    if not shape:
        a, b = a.reshape(1), b.reshape(1)  # 0-d inputs run as one entry
    hi = np.maximum(a, b)
    eps = np.minimum(a, b)
    eps -= hi  # -|b - a| to the bit, up to the sign of a zero
    # Most calls have no entry inside a radius (for G1 nearly all), so an
    # empty mask skips its series; G1's radius lies inside that of G2.
    near = eps > -(_SERIES_RADIUS if order > 1 else _VALUE_SERIES_RADIUS)
    e2 = e1 = None
    if np.count_nonzero(near):
        if order > 1:
            m2, e2, near = near, eps[near], eps > -_VALUE_SERIES_RADIUS
        if np.count_nonzero(near):
            m1, e1 = near, eps[near]
            eps[m1] = 1.0
    safe = eps  # 1.0 where G1 takes its series
    ehi = np.exp(hi)
    em = np.expm1(safe)
    # rows: g1; then g2, g1 - g2
    h = np.empty((2 * order - 1,) + hi.shape)
    np.divide(em, safe, h[0])
    if order > 1:
        num = safe * np.exp(safe)
        num -= em
        np.divide(num, safe * safe, h[1])
    if e1 is not None:
        h[0][m1] = _g1_series(e1)
    if e2 is not None:
        h[1][m2] = _series(_G2_COEF, e2)
    if order > 1:
        np.subtract(h[0], h[1], h[2])
    h *= ehi
    if order > 1:
        # the (smaller, larger) pair becomes (d/da, d/db): swapped where a > b
        np.copyto(h[1:], h[:0:-1], where=b < a)
    return h.reshape(h.shape[:1] + shape)


def j_values(a, b):
    """Elementwise J(a, b); symmetric in its arguments."""
    return _parts(a, b, 1)[0]


def segment_integrals(dx, pa, pb):
    """Per-segment integral of e^phi: dx_j * J(pa_j, pb_j). The segments of
    1-d arguments of one length run on floats, any other shape on arrays."""
    dx = np.asarray(dx, dtype=float)
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    if dx.ndim == pa.ndim == pb.ndim == 1 and dx.size == pa.size == pb.size:
        return np.array(_integrals(dx.tolist(), pa.tolist(), pb.tolist()))
    return dx * j_values(pa, pb)


def knot_objective(dt, phi, weights) -> float:
    """psi = sum(W phi) - integral(e^phi) + 1 on the knot grid."""
    dt, phi, weights = _vectors("knot_objective", _KNOT_ARGS, (dt, phi, weights))
    p = phi.tolist()
    integral = float(np.array(_integrals(dt.tolist(), p, p[1:])).sum())
    return float(np.dot(weights, phi)) - integral + 1.0


def knot_grad_hess(dt, phi, weights):
    """Objective, gradient, and tridiagonal Hessian on the knot grid.

    Returns ``(psi, grad, hess_diag, hess_off)`` where the Hessian of psi is
    symmetric tridiagonal with diagonal ``hess_diag`` (length R) and
    off-diagonal ``hess_off`` (length R-1). It is negative definite.

    Per segment: with ehi = exp(max(a, b)) and gk as in ``_parts``, J =
    ehi g1; the partials wrt the smaller argument are ehi g2 and ehi g3,
    those wrt the larger ehi (g1 - g2) and ehi ((g1 - 2 g2) + g3), and
    d2J/dadb = ehi (g2 - g3). Knot i takes the terms of segment i before
    those of segment i - 1, in the order of the array code it replaced.
    """
    dt, phi, weights = _vectors("knot_grad_hess", _KNOT_ARGS, (dt, phi, weights))
    p = phi.tolist()
    hi, eps, swap = _orient(p, p[1:])
    closed = [e for e in eps if not e > -_SERIES_RADIUS]  # G2, G3 closed forms
    ex = np.exp(hi + closed).tolist()
    ehi, ee = ex[:len(hi)], iter(ex[len(hi):])
    em = iter(np.expm1([e for e in eps if not e > -_VALUE_SERIES_RADIUS]).tolist())
    w = weights.tolist()
    jv = []
    grad = []
    hd = []
    he = []
    carry_g = carry_h = 0.0  # segment i - 1's terms at knot i; x - 0.0 is x
    # one pass per segment; the last knot's weight is taken after it
    for e, x, d, wi, flip in zip(eps, ehi, dt.tolist(), w, swap):
        if e > -_SERIES_RADIUS:
            g1 = _g1_series(e) if e > -_VALUE_SERIES_RADIUS else next(em) / e
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
        jv.append(g1 * x)
        near1 = (g1 - g2) * x * d
        far1 = g2 * x * d
        near2 = (g1 - g2 * 2.0 + g3) * x * d
        far2 = g3 * x * d
        if flip:
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
    return psi, np.array(grad), np.array(hd), np.array(he)


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
    """d(integral e^phi)/d(phi_i) on the full point grid."""
    x = np.asarray(x, dtype=float)
    phi_all = np.asarray(phi_all, dtype=float)
    dx = np.diff(x)
    _, ja, jb = _parts(phi_all[:-1], phi_all[1:], 2)
    terms = np.zeros_like(phi_all)
    terms[:-1] += dx * ja
    terms[1:] += dx * jb
    return terms


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

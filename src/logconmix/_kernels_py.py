"""Pure-numpy kernels for the weighted log-concave solver.

This module is the reference implementation of the five kernels that
``logcon`` calls (``j_values``, ``segment_integrals``, ``knot_objective``,
``knot_grad_hess`` and ``solve_newton_step``); the C extension built from
``_kernels_c.c`` implements the same five with the same formulas. Everything
here works on float64 arrays and is free of Python-level branching per
element.

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

Cost: with a handful of knots a call costs its numpy calls (~0.5 us each),
not its arithmetic. Every kernel goes through ``_parts``, which pays for one
exp(max(a, b)), one expm1 and (for the partials) one exp per segment, and
stacks J and its partials as rows of one array, so that scaling, orienting
and weighting them takes one call for all rows: ``knot_grad_hess`` makes 44
numpy calls (61 with one array per quantity). The formulas and their order of
operations are those of one-function-per-moment code, so the results are
identical to the last bit (``tests/test_kernels.py`` keeps it as the oracle).
"""

from __future__ import annotations

import math

import numpy as np

_SERIES_RADIUS = 0.05  # G2, G3 switch to series inside this |b - a|
_VALUE_SERIES_RADIUS = 1e-5  # G1 switches to series inside this |b - a|

# series coefficients through eps^8, one row per power, highest first for
# Horner's rule: column 0 is G2_k = 1/(k! (k+2)), column 1 G3_k = 1/(k! (k+3))
_G23_COEF = np.array([[1.0 / (math.factorial(k) * (k + j)) for j in (2, 3)]
                      for k in range(8, -1, -1)])


def _parts(a, b, order):
    """J and its partials up to ``order``, stacked along a new first axis:
    rows (J,) for ``order`` 1, (J, dJ/da, dJ/db) for 2, and (J, dJ/da, dJ/db,
    d2J/da2, d2J/db2, d2J/dadb) for 3, each of the broadcast shape of a, b.

    With ehi = exp(max(a, b)) and ``gk = integral_0^1 t^(k-1) e^{t eps} dt``
    at ``eps = -|b - a|``: J = ehi g1, the partials wrt the smaller argument
    are ehi g2 and ehi g3, those wrt the larger ehi (g1 - g2) and
    ehi (g1 - 2 g2 + g3), and d2J/dadb = ehi (g2 - g3). The series overwrite
    the closed forms inside their radius; a call with none there skips them.
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
    # empty mask skips its series; G1's radius lies inside that of G2, G3.
    near = eps > -(_SERIES_RADIUS if order > 1 else _VALUE_SERIES_RADIUS)
    e23 = e1 = None
    if np.count_nonzero(near):
        if order > 1:
            m23, e23, near = near, eps[near], eps > -_VALUE_SERIES_RADIUS
        if np.count_nonzero(near):
            m1, e1 = near, eps[near]
            eps[m1] = 1.0
    safe = eps  # 1.0 where G1 takes its series
    ehi = np.exp(hi)
    em = np.expm1(safe)
    # rows: g1; then g2, g1 - g2; then g3, g1 - 2 g2 + g3, g2 - g3
    h = np.empty(((1, 3, 6)[order - 1],) + hi.shape)
    np.divide(em, safe, h[0])
    if order > 1:
        ee = np.exp(safe)
        num = safe * ee
        num -= em
        ss = safe * safe
        np.divide(num, ss, h[1])
    if order > 2:
        ss_ee = ss * ee
        ss_ee -= 2.0 * num
        ss *= safe
        np.divide(ss_ee, ss, h[3])
    if e1 is not None:
        h[0][m1] = 1.0 + e1 * (0.5 + e1 * (1.0 / 6.0 + e1 * (1.0 / 24.0)))
    if e23 is not None:
        # one Horner pass, flat (the G2 terms, then G3's) so no step broadcasts
        ee = np.concatenate((e23, e23))
        coef = _G23_COEF.repeat(e23.size, axis=1)
        g23 = coef[0] * ee
        g23 += coef[1]
        for col in coef[2:]:
            g23 *= ee
            g23 += col
        for row, g in zip((1, 3)[:order - 1], g23.reshape(2, e23.size)):
            h[row][m23] = g
    if order > 1:
        np.subtract(h[0], h[1], h[2])
    if order > 2:
        np.subtract(h[1], h[3], h[5])
        np.multiply(h[1], 2.0, h[4])
        np.subtract(h[0], h[4], h[4])
        h[4] += h[3]
    h *= ehi
    if order > 1:
        # each (smaller, larger) pair becomes (d/da, d/db): swapped where a > b
        pairs = h[1:2 * order - 1].reshape((order - 1, 2) + hi.shape)
        np.copyto(pairs, pairs[:, ::-1], where=b < a)
    return h.reshape(h.shape[:1] + shape)


def j_values(a, b):
    """Elementwise J(a, b); symmetric in its arguments."""
    return _parts(a, b, 1)[0]


def segment_integrals(dx, pa, pb):
    """Per-segment integral of e^phi: dx_j * J(pa_j, pb_j)."""
    return np.asarray(dx, dtype=float) * j_values(pa, pb)


def knot_objective(dt, phi, weights) -> float:
    """psi = sum(W phi) - integral(e^phi) + 1 on the knot grid."""
    integral = float(segment_integrals(dt, phi[:-1], phi[1:]).sum())
    return float(np.dot(weights, phi)) - integral + 1.0


def knot_grad_hess(dt, phi, weights):
    """Objective, gradient, and tridiagonal Hessian on the knot grid.

    Returns ``(psi, grad, hess_diag, hess_off)`` where the Hessian of psi is
    symmetric tridiagonal with diagonal ``hess_diag`` (length R) and
    off-diagonal ``hess_off`` (length R-1). It is negative definite.
    """
    dt = np.asarray(dt, dtype=float)
    phi = np.asarray(phi, dtype=float)
    weights = np.asarray(weights, dtype=float)
    rows = _parts(phi[:-1], phi[1:], 3)
    psi = float(weights.dot(phi)) - float(dt.dot(rows[0])) + 1.0
    terms = rows[1:]
    terms *= dt  # dt times (Ja, Jb, Jaa, Jbb, Jab)
    grad = weights.copy()
    grad[:-1] -= terms[0]
    grad[1:] -= terms[1]
    hd = np.zeros(phi.size)
    hd[:-1] -= terms[2]
    hd[1:] -= terms[3]
    return psi, grad, hd, -terms[4]


def solve_newton_step(hess_diag, hess_off, grad):
    """Solve (-H) d = grad for the ascent direction d.

    -H is symmetric tridiagonal and positive definite in exact arithmetic.
    If the LDL^T sweep hits a non-positive or non-finite pivot (possible when
    a segment's density mass underflows), the diagonal is regularized by
    delta = 1e-12 * (1 + max|diag|), doubling until the sweep succeeds.
    """
    adiag = (-np.asarray(hess_diag, dtype=float)).tolist()
    aoff = (-np.asarray(hess_off, dtype=float)).tolist()
    rhs = np.asarray(grad, dtype=float).tolist()
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
    out = np.array(y)
    if np.count_nonzero(np.isfinite(out)) < n:
        return None
    return out


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

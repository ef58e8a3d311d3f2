"""Pure-numpy kernels for the weighted log-concave solver.

This module is the reference implementation; ``_kernels_cy`` mirrors it in
Cython. Everything here works on float64 arrays and is free of Python-level
branching per element.

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

Cost: every kernel goes through ``_parts``, which pays for one exp(max(a, b)),
one expm1 and (for the partials) one exp per segment, shared by G1, G2 and
G3. Each series is evaluated only on the entries inside its radius, G2 and G3
in one Horner pass, and overwrites the closed form there; a call with no entry
inside a radius skips that series. The formulas and their order of operations
are those of one-function-per-moment code, so the results are identical to
the last bit (``tests/test_kernels.py`` keeps that code as the oracle).
"""

from __future__ import annotations

import math

import numpy as np

BACKEND_NAME = "python"

_SERIES_RADIUS = 0.05  # G2, G3 switch to series inside this |b - a|
_VALUE_SERIES_RADIUS = 1e-5  # G1 switches to series inside this |b - a|

# series coefficients through eps^8: row 0 is G2_k = 1/(k! (k+2)), row 1 is
# G3_k = 1/(k! (k+3)). Horner columns, highest power first: G2 alone for
# order 2, G2 and G3 stacked for order 3.
_G23_COEF = np.array([[1.0 / (math.factorial(k) * (k + j)) for k in range(9)]
                      for j in (2, 3)])
_HORNER_COLS = [[_G23_COEF[:rows, k:k + 1] for k in range(8, -1, -1)]
                for rows in (1, 2)]


def _g23_series(e, order):
    """G2 (order 2), or G2 and G3 stacked (order 3), of the 1-d ``e`` by
    one Horner pass; one row per function."""
    cols = _HORNER_COLS[order - 2]
    out = cols[0] * e + cols[1]
    for col in cols[2:]:
        out *= e
        out += col
    return out


def _g23_closed(safe, em, order):
    """G2 (order 2), or G2 and G3 (order 3), in closed form from ``safe``
    and ``em = expm1(safe)``."""
    ee = np.exp(safe)
    num = safe * ee - em
    ss = safe * safe
    if order == 2:
        return [num / ss]
    return [num / ss, (ss * ee - 2.0 * num) / (ss * safe)]


def _parts(a, b, order):
    """Shared pieces of J and its partials at ``eps = -|b - a|``.

    Returns ``(ehi, g1)`` for ``order`` 1, ``(ehi, g1, g2)`` for 2 and
    ``(ehi, g1, g2, g3)`` for 3, with ``ehi = exp(max(a, b))`` and
    ``gk = integral_0^1 t^(k-1) e^{t eps} dt``. Each closed form is computed
    on every entry from one ``expm1`` and one ``exp``; the series then
    overwrite the entries inside their radius.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ehi = np.exp(np.maximum(a, b))
    eps = np.atleast_1d(-np.abs(b - a))  # an array, so entries can be assigned
    m1 = eps > -_VALUE_SERIES_RADIUS
    safe = np.where(m1, 1.0, eps)
    em = np.expm1(safe)
    out = [ehi, em / safe]
    # Most calls have no entry inside a radius (for G1 nearly all), so an
    # empty mask skips its series.
    if m1.any():
        e = eps[m1]
        out[1][m1] = 1.0 + e * (0.5 + e * (1.0 / 6.0 + e * (1.0 / 24.0)))
    if order >= 2:
        out += _g23_closed(safe, em, order)
        m23 = eps > -_SERIES_RADIUS
        if m23.any():
            for g, row in zip(out[2:], _g23_series(eps[m23], order)):
                g[m23] = row
    if np.ndim(ehi) == 0:
        out[1:] = [g.reshape(()) for g in out[1:]]
    return out


def _oriented(b_is_hi, near, far):
    """(d/da, d/db) from the partials wrt the larger and smaller argument."""
    return np.where(b_is_hi, far, near), np.where(b_is_hi, near, far)


def j_values(a, b):
    """Elementwise J(a, b); symmetric in its arguments."""
    ehi, g1 = _parts(a, b, 1)
    return ehi * g1


def j_value(a: float, b: float) -> float:
    return float(j_values(a, b))


def j_first_partials(a, b):
    """Elementwise (dJ/da, dJ/db)."""
    ehi, g1, g2 = _parts(a, b, 2)
    # partials wrt the larger (near) and the smaller (far) argument
    return _oriented(np.greater_equal(b, a), ehi * (g1 - g2), ehi * g2)


def _value_and_partials(a, b):
    """J and its five partials, as in :func:`j_all_partials`, from one
    set of shared pieces."""
    ehi, g1, g2, g3 = _parts(a, b, 3)
    b_is_hi = np.greater_equal(b, a)
    ja, jb = _oriented(b_is_hi, ehi * (g1 - g2), ehi * g2)
    jaa, jbb = _oriented(b_is_hi, ehi * (g1 - 2.0 * g2 + g3), ehi * g3)
    return ehi * g1, ja, jb, jaa, ehi * (g2 - g3), jbb


def j_all_partials(a, b):
    """Elementwise (dJ/da, dJ/db, d2J/da2, d2J/dadb, d2J/db2)."""
    return _value_and_partials(a, b)[1:]


def j_partials(a: float, b: float):
    ja, jb, jaa, jab, jbb = j_all_partials(a, b)
    return float(ja), float(jb), float(jaa), float(jab), float(jbb)


def segment_integrals(dx, pa, pb):
    """Per-segment integral of e^phi: dx_j * J(pa_j, pb_j)."""
    return np.asarray(dx, dtype=float) * j_values(pa, pb)


def knot_objective(dt, phi, weights) -> float:
    """psi = sum(W phi) - integral(e^phi) + 1 on the knot grid."""
    integral = float(np.sum(segment_integrals(dt, phi[:-1], phi[1:])))
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
    pa = phi[:-1]
    pb = phi[1:]
    jval, ja, jb, jaa, jab, jbb = _value_and_partials(pa, pb)
    psi = float(np.dot(weights, phi) - np.dot(dt, jval) + 1.0)

    grad = weights.copy()
    grad[:-1] -= dt * ja
    grad[1:] -= dt * jb

    hd = np.zeros_like(phi)
    hd[:-1] -= dt * jaa
    hd[1:] -= dt * jbb
    he = -dt * jab
    return psi, grad, hd, he


def solve_newton_step(hess_diag, hess_off, grad):
    """Solve (-H) d = grad for the ascent direction d.

    -H is symmetric tridiagonal and positive definite in exact arithmetic.
    If the LDL^T sweep hits a non-positive or non-finite pivot (possible when
    a segment's density mass underflows), the diagonal is regularized by
    delta = 1e-12 * (1 + max|diag|), doubling until the sweep succeeds.
    """
    adiag = -np.asarray(hess_diag, dtype=float)
    aoff = -np.asarray(hess_off, dtype=float)
    delta = 0.0
    for _ in range(60):
        d = _ldl_tridiag_solve(adiag + delta, aoff, grad)
        if d is not None:
            return d
        delta = 2.0 * delta if delta else 1e-12 * (1.0 + float(np.max(np.abs(adiag))))
    raise FloatingPointError("tridiagonal Newton system could not be stabilized")


def _ldl_tridiag_solve(adiag, aoff, rhs):
    """LDL^T solve of the tridiagonal system; None on a bad pivot or result.

    The recurrences are serial, so they run on Python floats: the same IEEE
    double operations, in the same order, as on numpy scalars.
    """
    diag = adiag.tolist()
    off = aoff.tolist()
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
    y = np.asarray(rhs, dtype=float).tolist()
    for i in range(1, n):
        y[i] -= lsub[i - 1] * y[i - 1]
    y = [v / d for v, d in zip(y, dref)]
    for i in range(n - 2, -1, -1):
        y[i] -= lsub[i] * y[i + 1]
    out = np.array(y)
    if not np.isfinite(out).all():
        return None
    return out


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
    ja, jb = j_first_partials(phi_all[:-1], phi_all[1:])
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

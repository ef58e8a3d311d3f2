"""Reference kernels for the weighted log-concave solver.

This module is the reference implementation of the two kernels that the
solver in ``logcon`` calls: ``newton_solve``, the Newton loop on one knot
set in one call, and ``knot_grad_hess``, the objective with its
derivatives at one point, which logcon calls once per round. The C
extension built from ``_kernels_c.c`` implements the same two with the
same operations in the same order, so the two backends return the same
bits. Both run on list cores: ``_grad_hess`` at every point,
``_newton_step`` for every step and ``_step_bound`` for its bound. The
psi of ``_grad_hess`` is the only formula of the objective; the Armijo
test and ``logcon.objective`` read it.
``segment_integrals``, which ``logcon.cdf`` calls on every backend to
evaluate a finished fit, has no compiled twin; nor have the array views
``knot_objective``, ``integral_grad_terms`` and ``solve_newton_step``, nor
the per-point kernels at the end of the module, which stay as test oracles
and for the benchmark's tracer.

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
- one Horner routine, ``_series``, evaluates G1's series on arrays and
  ``logcon``'s hinge tail, on floats and on arrays; ``_grad_hess`` writes
  its steps out for the three series on floats, in its order.

Two layouts of the same formulas:
- ``_grad_hess`` works on the R - 1 segments of one knot set, and
  ``newton_solve`` calls it at every point it visits. R is small (about 6
  in a Monte-Carlo M-step, about 16 at n = 1e5), and one numpy call
  (~0.5-1 us) costs about as much as the ~40 flops of a whole segment, so
  it runs one segment at a time on Python floats, and ``newton_solve``
  keeps phi, the gradient, the Hessian and the step as lists from its one
  argument check to its return. Within the list cores, ``_grad_hess``
  carries a knot's gradient and Hessian entries as floats from one segment
  to the next and writes its three series out as Horner steps, and
  ``_ldl_tridiag_solve`` runs the forward sweep and the division by each
  pivot in the factorization's loop: fewer list stores and calls, and for
  each entry the operations of the C's loops. They are line-for-line twins
  of the C kernels and return their bits:
  - ``math.exp`` and ``math.expm1`` call the C library's exp and expm1,
    as the C does. Where exp overflows, ``math.exp`` raises OverflowError
    and the C's exp gives inf; the python kernel then takes inf.
  - + - * / and comparisons on Python floats are the C's double
    operations; every expression keeps the C's order of operations, and
    the build keeps the compiler from fusing a multiply and an add
    (``-ffp-contract=off`` in setup.py).
  - Sums run left to right in explicit loops, as the C's do, the Armijo
    slope g.d included: the builtin ``sum`` compensates its rounding on
    Python >= 3.12, ``ndarray.sum`` sums pairwise, and ``ndarray.dot``
    goes through BLAS, whose order depends on the kernel that OpenBLAS
    selects for the CPU.
  - Python raises ZeroDivisionError where C returns inf, so the float code
    divides only by values that cannot be zero: by eps only where
    |eps| >= 1e-5, by pivots that are positive, and 1/dt is taken as the
    C takes it, an infinity of dt's sign at a zero width.
  ``_grad_hess`` is the only place where J's partials and psi are formed:
  ``knot_grad_hess`` returns them as arrays, ``integral_grad_terms`` reads
  its gradient and ``knot_objective`` its psi.
- J's value alone (``j_values``, and ``segment_integrals`` through it)
  takes arrays of any shape, one numpy call per step of the formula for all
  entries, with numpy's exp and expm1. These give the bits of the array
  oracle in ``tests/test_kernels.py`` and agree with ``knot_grad_hess``'s
  masses to about 1e-13.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_SERIES_RADIUS = 0.05  # G2, G3 switch to series inside this |b - a|
_VALUE_SERIES_RADIUS = 1e-5  # G1 switches to series inside this |b - a|
# newton_solve stops at a gradient within _TOL_GRAD of zero in every entry
# (logcon's KKT tolerance), and its line search asks for a rise in psi of
# at least _ARMIJO_C times the slope's
_TOL_GRAD = 1e-8
_ARMIJO_C = 0.25

# series coefficients, lowest power first: G1_k = 1/(k+1)! through eps^3,
# G2_k = 1/(k! (k+2)) and G3_k = 1/(k! (k+3)) through eps^8
_G1_COEF = [1.0 / math.factorial(k + 1) for k in range(4)]
_G2_COEF = [1.0 / (math.factorial(k) * (k + 2)) for k in range(9)]
_G3_COEF = [1.0 / (math.factorial(k) * (k + 3)) for k in range(9)]

# (names, the argument whose length R sets the others, their offsets from
# R) of the arrays that the knot kernels take, as _kernels_c.c checks them,
# and of those of the view solve_newton_step
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
    """psi = sum(W phi) - integral(e^phi) + 1 on the knot grid: the psi of
    ``knot_grad_hess``."""
    return knot_grad_hess(dt, phi, weights)[0]


def knot_grad_hess(dt, phi, weights):
    """Objective, gradient, tridiagonal Hessian and segment masses on the
    knot grid.

    Returns ``(psi, grad, hess_diag, hess_off, mass)`` where the Hessian of
    psi is symmetric tridiagonal with diagonal ``hess_diag`` (length R) and
    off-diagonal ``hess_off`` (length R-1). It is negative definite.
    ``mass`` holds dt_j J(phi_j, phi_{j+1}), and psi is
    ``sum(W phi) - sum(mass) + 1`` with both sums taken left to right.
    An array view of ``_grad_hess``, which ``newton_solve`` calls at every
    point it visits.
    """
    dt, phi, weights = _vectors("knot_grad_hess", _KNOT_ARGS, (dt, phi, weights))
    psi, grad, hd, he, mass = _grad_hess(dt.tolist(), phi.tolist(), weights.tolist())
    return psi, np.array(grad), np.array(hd), np.array(he), np.array(mass)


def _grad_hess(dt, p, w):
    """``knot_grad_hess`` on lists, returning lists.

    Per segment: with ehi = exp(max(a, b)) and gk as in ``j_values``, J =
    ehi g1; the partials wrt the smaller argument are ehi g2 and ehi g3,
    those wrt the larger ehi (g1 - g2) and ehi ((g1 - 2 g2) + g3), and
    d2J/dadb = ehi (g2 - g3). Knot i's gradient starts from its weight and
    its Hessian entry from zero, and each segment subtracts its terms from
    its two knots, so knot i takes segment i - 1's terms before segment
    i's: the loop carries the right knot's two entries as floats into the
    next segment. The three series are ``_series``' Horner steps written
    out, and the closed forms share their products. Every operation is that
    of ``grad_hess`` in _kernels_c.c, in its order.
    """
    grad = []
    hd = []
    he = []
    mass = []
    lin = 0.0
    integral = 0.0
    g_right = w[0]  # knot i's entries, less segment i - 1's terms
    h_right = 0.0
    for d, a, b, wa, wb in zip(dt, p, p[1:], w, w[1:]):
        lin += wa * a
        try:
            ehi = math.exp(a if a >= b else b)
        except OverflowError:  # libm's exp gives inf
            ehi = math.inf
        eps = -abs(b - a)
        if eps > -_SERIES_RADIUS:
            if eps > -_VALUE_SERIES_RADIUS:
                c0, c1, c2, c3 = _G1_COEF
                g1 = ((c3 * eps + c2) * eps + c1) * eps + c0
            else:
                g1 = math.expm1(eps) / eps
            c0, c1, c2, c3, c4, c5, c6, c7, c8 = _G2_COEF
            g2 = ((((((((c8 * eps + c7) * eps + c6) * eps + c5) * eps + c4) * eps
                     + c3) * eps + c2) * eps + c1) * eps + c0)
            c0, c1, c2, c3, c4, c5, c6, c7, c8 = _G3_COEF
            g3 = ((((((((c8 * eps + c7) * eps + c6) * eps + c5) * eps + c4) * eps
                     + c3) * eps + c2) * eps + c1) * eps + c0)
        else:
            ee = math.exp(eps)
            em = math.expm1(eps)
            e2 = eps * eps
            g2_num = eps * ee - em
            g1 = em / eps
            g2 = g2_num / e2
            g3 = (e2 * ee - 2.0 * g2_num) / (e2 * eps)
        # partials wrt the larger argument (near) and the smaller (far)
        near1 = ehi * (g1 - g2)
        far1 = ehi * g2
        near2 = ehi * (g1 - 2.0 * g2 + g3)
        far2 = ehi * g3
        m = d * (ehi * g1)
        mass.append(m)
        integral += m
        if b >= a:
            grad.append(g_right - d * far1)
            hd.append(h_right - d * far2)
            g_right = wb - d * near1
            h_right = 0.0 - d * near2
        else:
            grad.append(g_right - d * near1)
            hd.append(h_right - d * near2)
            g_right = wb - d * far1
            h_right = 0.0 - d * far2
        he.append(-d * (ehi * (g2 - g3)))
    grad.append(g_right)
    hd.append(h_right)
    lin += w[-1] * p[-1]
    return lin - integral + 1.0, grad, hd, he, mass


def solve_newton_step(hess_diag, hess_off, grad):
    """Solve (-H) d = grad for the ascent direction d: an array view of
    ``_newton_step``, which ``newton_solve`` calls at every step."""
    hess_diag, hess_off, grad = _vectors("solve_newton_step", _NEWTON_ARGS,
                                         (hess_diag, hess_off, grad))
    return np.array(_newton_step(hess_diag.tolist(), hess_off.tolist(), grad.tolist()))


def _newton_step(hd, he, grad):
    """``solve_newton_step`` on lists, returning a list.

    -H is symmetric tridiagonal and positive definite in exact arithmetic.
    If the LDL^T sweep hits a non-positive or non-finite pivot (possible when
    a segment's density mass underflows), the diagonal is regularized by
    delta = 1e-12 * (1 + max|diag|), doubling until the sweep succeeds. A
    diagonal that holds a NaN or an infinity fails every sweep, whatever
    delta is, so the C's max, which skips a NaN, gives the same result.
    """
    delta = 0.0
    for _ in range(60):
        d = _ldl_tridiag_solve(hd, he, grad, delta)
        if d is not None:
            return d
        delta = 2.0 * delta if delta else 1e-12 * (1.0 + max(map(abs, hd)))
    raise FloatingPointError("tridiagonal Newton system could not be stabilized")


def _ldl_tridiag_solve(hd, he, rhs, delta):
    """LDL^T solve of (-H + delta I) y = rhs, with H given by the lists of
    its diagonal and off-diagonal; None on a non-positive or non-finite
    pivot or result.

    The recurrences are serial, so they run on Python floats: the same IEEE
    double operations, in the same order, as ``ldl_solve`` in _kernels_c.c.
    The forward sweep and the division by the pivots run in the
    factorization's loop, as each pivot and subdiagonal entry is formed;
    each entry of y sees the same operations as in the C's separate loops.
    """
    piv = -hd[0] + delta
    if not 0.0 < piv < math.inf:
        return None
    fwd = rhs[0]
    y = [fwd / piv]
    lsub = []
    for off, hi, ri in zip(he, hd[1:], rhs[1:]):
        aoff = -off
        lo = aoff / piv
        piv = -hi + delta - aoff * lo
        if not 0.0 < piv < math.inf:
            return None
        lsub.append(lo)
        fwd = ri - lo * fwd
        y.append(fwd / piv)
    back = y[-1]
    for i in reversed(range(len(lsub))):
        back = y[i] - lsub[i] * back
        y[i] = back
    if not all(map(math.isfinite, y)):
        return None
    return y


def _inverses(dt):
    """1 / dt_j per segment as the C divides: a zero width gives an
    infinity of its sign, where Python would raise."""
    return [1.0 / d if d else math.copysign(math.inf, d) for d in dt]


def _step_bound(inv_dt, p, direction):
    """Largest alpha keeping the knot slopes of p + alpha direction
    nonincreasing, with the interior knot that blocks it; (inf, None) if
    free. From lists of 1 / dt, the knot values and the direction.

    Over the interior knots in order, where the direction's curvature (the
    slope decrease) is below -1e-300, the least ratio of the curvature of
    p, clamped at 0, to minus the direction's blocks; the first of tied
    ratios wins, and a NaN ratio frees the step, as the argmin of an array
    holding them would. One pass, as ``step_bound`` in _kernels_c.c.
    """
    alpha, j_block = math.inf, None
    for j in range(len(p) - 2):
        c_dir = ((direction[j + 1] - direction[j]) * inv_dt[j]
                 - (direction[j + 2] - direction[j + 1]) * inv_dt[j + 1])
        if c_dir < -1e-300:
            c = (p[j + 1] - p[j]) * inv_dt[j] - (p[j + 2] - p[j + 1]) * inv_dt[j + 1]
            # a roundoff-negative slack (and -0.0) is clamped to 0.0
            ratio = (0.0 if c <= 0.0 else c) / -c_dir
            if ratio != ratio:
                return math.inf, None
            if ratio < alpha:
                alpha, j_block = ratio, j + 1  # constraint j sits at interior knot j + 1
    return alpha, j_block


def _inner(a, b):
    """sum_i a_i b_i, left to right, as the C sums: ``ndarray.dot`` goes
    through BLAS, whose summation order depends on the CPU it selects."""
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def newton_solve(dt, phi, weights, max_steps):
    """Newton's method with Armijo backtracking on one knot set, from phi.

    Returns ``(phi, mass, stalled, block, steps, evals)``: the last point
    accepted and its segment masses (arrays), whether the round stalled,
    the interior knot whose constraint the last step activated (None if
    none did), and the counts of Newton steps and of ``_grad_hess`` points
    evaluated, the start included. The solve stops

    - when every gradient entry is within ``_TOL_GRAD`` of zero, or after
      ``max_steps`` steps (the start is then returned as it was evaluated,
      so 0 steps gives its masses);
    - as stalled, when no alpha above 1e-16 meets the Armijo condition,
      or the line search accepts a point no higher in psi short of a
      boundary hit; that step is not taken;
    - at a boundary hit: the step is truncated at alpha_bar, the largest
      alpha that keeps phi concave, and ``block`` is the knot that
      bounds it. A step bounded below 1e-300 activates the knot without
      moving. The caller drops the knot and calls again with what is left
      of its budget.

    A step is the solution of (-H) d = grad, or the gradient itself when
    the slope g.d is not positive and finite (H was unusable); the slope
    is summed left to right. Every operation is that of ``newton_solve``
    in _kernels_c.c, in its order.
    """
    dt, phi, weights = _vectors("newton_solve", _KNOT_ARGS, (dt, phi, weights))
    max_steps = operator.index(max_steps)
    d = dt.tolist()
    w = weights.tolist()
    inv_dt = _inverses(d)
    p = phi.tolist()
    psi, grad, hd, he, mass = _grad_hess(d, p, w)
    steps, evals = 0, 1
    stalled, block = False, None
    while steps < max_steps:
        if all(-_TOL_GRAD <= g <= _TOL_GRAD for g in grad):
            break
        steps += 1
        step = _newton_step(hd, he, grad)
        slope = _inner(grad, step)
        if not 0.0 < slope < math.inf:
            step = grad  # ascent fallback; H was unusable
            slope = _inner(grad, grad)
        alpha_bar, j_block = _step_bound(inv_dt, p, step)
        alpha = alpha_bar if alpha_bar < 1.0 else 1.0
        if alpha_bar > 1e-300:  # else blocked at once: activate without moving
            while alpha > 1e-16:
                cand = [s * alpha + v for s, v in zip(step, p)]
                point = _grad_hess(d, cand, w)
                evals += 1
                if point[0] >= psi + _ARMIJO_C * alpha * slope:
                    break
                alpha *= 0.5
            else:
                stalled = True  # Armijo cannot improve: machine precision
                break
            if point[0] <= psi and alpha != alpha_bar:
                stalled = True  # accepted without a gain in psi: no progress
                break
            p = cand
            psi, grad, hd, he, mass = point
        if alpha == alpha_bar:
            block = j_block  # boundary hit: this constraint turns active
            break
    return np.array(p), np.array(mass), stalled, block, steps, evals


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

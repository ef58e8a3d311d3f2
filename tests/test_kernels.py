"""Numerical kernels: the segment kernel J, its derivatives, and the
tridiagonal Newton machinery, checked against quadrature values, closed
forms, finite differences, and the two backends against one scalar oracle
and each other.

J(a, b) = integral_0^1 exp((1-t) a + t b) dt, so that a segment of width dx
with endpoint log-values (a, b) contributes dx * J(a, b) to integral(e^phi).
Both backends are checked through the two kernels that logcon's solver
calls, ``knot_grad_hess`` and ``newton_solve``; J and its partials are
read off ``knot_grad_hess`` (see ``_masses`` and ``_partials``), and the
objective is its psi, which the line search reads (``_armijo_value``). The knot kernels of both backends, and
the python views ``integral_grad_terms`` and ``knot_objective`` that read
them, are checked bit for bit against the formulas of ``_kernels_c.c`` on
Python floats (``_c_parts`` and ``_c_knot_grad_hess``), the python
``solve_newton_step`` against an LDL^T sweep on numpy scalars, and
``newton_solve`` on both backends against the Newton loop that logcon ran
before it moved into the kernel (``_ref_newton_solve``). The python
``j_values`` and ``segment_integrals``, which evaluate arrays and have no
compiled twin, are checked bit for bit against an array oracle, which also
checks the knot kernels to rounding. Fixed seams and hypothesis-drawn knot
chains feed both oracles.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logconmix._kernels_py as kpy
from logconmix import kernels, logcon
from logconmix.em import run_em
from logconmix.families import sample_mixture
from logconmix.rng import child_seed
from logconmix.simulate import model_catalog

from conftest import independent_objective
from test_solver import _max_feasible_step, _ref_max_feasible_step

# 40-digit quadrature of the defining integral (mpmath, dps=40), rounded to
# 20 significant digits. The (0.3, 0.3 + 1e-9) pair exercises the
# near-diagonal series branch; (5.0, 5.049) sits just outside it.
J_TABLE = [
    (0.0, 0.0, 1.0),                                  # e^0
    (0.0, math.log(2.0), 1.4426950408889634074),      # = 1/ln 2
    (-1.0, 2.0, 2.3403922192530693019),               # = (e^2 - e^-1)/3
    (1.5, 1.5, 4.4816890703380648226),                # = e^1.5
    (0.3, 0.3 + 1e-9, 1.3498588082509325114),
    (-2.0, -1.96, 0.13807844211080760882),
    (5.0, 5.049, 152.10940621565305471),
    (-3.0, 4.0, 7.792623280682339305),
    (2.0, -7.0, 0.82090491299612174567),
]

# (a, b) -> (dJ/da, dJ/db, d2J/da2, d2J/dadb, d2J/db2), same quadrature.
J_PARTIALS_TABLE = [
    ((0.0, 0.0), (0.5, 0.5, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0)),
    ((-1.0, 2.0), (0.65750425936054232676, 1.6828879598925269751,
                   0.31570969251654744398, 0.34179456684399488279,
                   1.3410933930485320923)),
    ((0.3, 0.3 + 1e-7), (0.67492942628564890052, 0.67492944878329681898,
                         0.4499529471074913181, 0.22497647917815758242,
                         0.44995296960513923656)),
    ((5.0, 5.049), (75.433614552580058816, 76.675791663072995895,
                    50.08306127721419081, 25.350553275365868006,
                    51.325238387707127889)),
]

# the per-point kernels exist on the python backend only
PYTHON_ONLY = pytest.mark.parametrize("impl", [kpy], ids=["python"])


@pytest.fixture(params=["python", "compiled"])
def impl(request):
    if request.param == "python":
        return kpy
    return request.getfixturevalue("compiled_kernels")


def _both_backends(request):
    """The python kernels, then the compiled ones, for a test that loops
    over both last. The compiled module is fetched only after the python
    pass, so where it cannot be built the skip comes after that pass has
    run its assertions."""
    yield kpy
    yield request.getfixturevalue("compiled_kernels")


def _chain(impl, dx, a, b):
    """``knot_grad_hess`` on the pairs (a[i], b[i]) as the segments, of
    widths dx, of one knot chain, joined by segments of zero width, with
    every weight zero. A zero-width join subtracts only zeros, so each
    pair's terms come out exactly."""
    phi = np.column_stack((np.atleast_1d(a), np.atleast_1d(b))).ravel()
    dt = np.zeros(phi.size - 1)
    dt[::2] = dx
    return impl.knot_grad_hess(dt, phi, np.zeros(phi.size))


def _masses(impl, dx, a, b):
    """dx[i] * J(a[i], b[i]) at each pair: the masses of ``_chain``."""
    return _chain(impl, dx, a, b)[4][::2]


def _j(impl, a, b):
    """J(a[i], b[i]) at each pair: the masses of unit segments."""
    return _masses(impl, 1.0, a, b)


def _partials(impl, a, b):
    """(dJ/da, dJ/db, d2J/da2, d2J/dadb, d2J/db2) at each pair (a[i], b[i]),
    through ``knot_grad_hess`` on unit segments: the gradient holds
    (-Ja, -Jb), the Hessian diagonal (-Jaa, -Jbb) and its off-diagonal -Jab
    of each pair."""
    _, grad, hd, he, _ = _chain(impl, 1.0, a, b)
    return -grad[::2], -grad[1::2], -hd[::2], -he[::2], -hd[1::2]


def _armijo_value(impl, dt, phi, w):
    """psi as logcon's line search reads it: that of ``knot_grad_hess``."""
    return impl.knot_grad_hess(dt, phi, w)[0]


def test_j_values_match_quadrature(impl):
    a, b, expected = (np.array(col) for col in zip(*J_TABLE))
    got = _j(impl, a, b)
    for i in range(len(J_TABLE)):
        assert got[i] == pytest.approx(expected[i], rel=1e-13), (a[i], b[i])


def test_j_values_vectorized_matches_scalar(impl, rng):
    a = rng.uniform(-8.0, 6.0, 64)
    b = a + rng.uniform(-3.0, 3.0, 64)
    vec = _j(impl, a, b)
    for i in range(64):
        one = _j(impl, a[i:i + 1], b[i:i + 1])
        assert vec[i] == pytest.approx(one[0], rel=1e-15)


def test_j_symmetric(impl, rng):
    a = rng.uniform(-6.0, 4.0, 50)
    b = a + rng.uniform(-2.0, 2.0, 50)
    np.testing.assert_allclose(_j(impl, a, b), _j(impl, b, a), rtol=1e-14)


def test_j_partials_match_quadrature(impl):
    for (a, b), expected in J_PARTIALS_TABLE:
        got = _partials(impl, a, b)
        assert len(got) == 5
        for g, e in zip(got, expected):
            assert g[0] == pytest.approx(e, rel=1e-10), (a, b)


def test_j_partials_match_finite_differences(impl, rng):
    h = 1e-6

    def j(a, b):
        return _j(impl, a, b)[0]

    for _ in range(30):
        a = float(rng.uniform(-6.0, 3.0))
        b = a + float(rng.uniform(-2.5, 2.5))
        ja, jb, *_ = _partials(impl, a, b)
        fd_a = (j(a + h, b) - j(a - h, b)) / (2 * h)
        fd_b = (j(a, b + h) - j(a, b - h)) / (2 * h)
        assert ja[0] == pytest.approx(fd_a, rel=5e-6)
        assert jb[0] == pytest.approx(fd_b, rel=5e-6)


def test_j_all_partials_vectorized(impl, rng):
    a = rng.uniform(-5.0, 3.0, 25)
    b = a + rng.uniform(-0.2, 0.2, 25)   # mostly series branch
    cols = _partials(impl, a, b)
    assert len(cols) == 5
    for i in range(25):
        scalar = _partials(impl, a[i], b[i])
        for c, s in zip(cols, scalar):
            assert c[i] == pytest.approx(s[0], rel=1e-13)


def test_segment_integrals_match_expm1_form(impl, rng):
    dx = rng.uniform(0.01, 2.0, 40)
    pa = rng.uniform(-5.0, 2.0, 40)
    pb = pa + rng.uniform(-1.5, 1.5, 40)
    pb[::7] = pa[::7]                     # exercise the equal-endpoint path
    got = _masses(impl, dx, pa, pb)
    for j in range(40):
        d = pb[j] - pa[j]
        if d == 0.0:
            expected = dx[j] * math.exp(pa[j])
        else:
            expected = dx[j] * math.exp(pa[j]) * math.expm1(d) / d
        assert got[j] == pytest.approx(expected, rel=1e-13)


def test_knot_objective_matches_independent_evaluation(impl, rng):
    x = np.sort(rng.uniform(0.0, 3.0, 12))
    phi = np.cumsum(rng.uniform(-0.5, 0.5, 12)) - 1.0
    w = rng.uniform(0.0, 1.0, 12)
    w /= w.sum()
    dt = np.diff(x)
    got = _armijo_value(impl, dt, phi, w)
    assert got == pytest.approx(independent_objective(x, w, phi), rel=1e-12)
    # knot_objective is a view of the python knot_grad_hess: the scalar
    # oracle's psi, and so the Armijo value of either backend, to the bit
    value = kpy.knot_objective(dt, phi, w)
    assert value == _c_knot_grad_hess(dt, phi, w)[0]
    assert got == value


def test_knot_grad_hess_matches_finite_differences(impl, rng):
    x = np.sort(rng.uniform(0.0, 2.0, 8))
    dt = np.diff(x)
    phi = np.cumsum(rng.uniform(-0.4, 0.4, 8))
    w = rng.uniform(0.1, 1.0, 8)
    w /= w.sum()
    _, grad, hdiag, hoff, _ = impl.knot_grad_hess(dt, phi, w)
    h = 1e-6
    for i in range(8):
        e = np.zeros(8)
        e[i] = h
        fd = (_armijo_value(impl, dt, phi + e, w)
              - _armijo_value(impl, dt, phi - e, w)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-8)
    # Hessian via central differences of the gradient (second differences of
    # the objective itself would sit in h^2 cancellation noise)
    for i in range(8):
        e = np.zeros(8)
        e[i] = h
        gplus = impl.knot_grad_hess(dt, phi + e, w)[1]
        gminus = impl.knot_grad_hess(dt, phi - e, w)[1]
        fd_col = (gplus - gminus) / (2 * h)
        assert hdiag[i] == pytest.approx(fd_col[i], rel=2e-5, abs=1e-9)
        if i + 1 < 8:
            assert hoff[i] == pytest.approx(fd_col[i + 1], rel=2e-5, abs=1e-9)


def _tridiagonal(hdiag, hoff):
    return np.diag(hdiag) + np.diag(hoff, 1) + np.diag(hoff, -1)


def test_python_newton_step_solves_any_tridiagonal_system(rng):
    n = 12
    hoff = -rng.uniform(0.1, 0.5, n - 1)
    hdiag = -(rng.uniform(1.5, 3.0, n))   # diagonally dominant, negative definite
    grad = rng.normal(0.0, 1.0, n)
    step = kpy.solve_newton_step(hdiag.copy(), hoff.copy(), grad.copy())
    expected = np.linalg.solve(-_tridiagonal(hdiag, hoff), grad)
    np.testing.assert_allclose(step, expected, rtol=1e-10, atol=1e-12)


def test_solve_newton_step_solves_the_tridiagonal_system(impl, rng):
    # newton_solve's first step, taken whole: near the optimum of a
    # strongly concave phi the step is small, keeps phi concave and passes
    # the Armijo test at alpha = 1, so phi moves by the solution of
    # (-H) d = grad at the start
    x = np.linspace(-2.0, 2.0, 12)
    dt = np.diff(x)
    phi = -0.5 * x * x - 1.0
    w = 1e-4 * rng.uniform(-1.0, 1.0, 12) - kpy.knot_grad_hess(dt, phi, np.zeros(12))[1]
    _, grad, hdiag, hoff, _ = kpy.knot_grad_hess(dt, phi, w)
    out, mass, stalled, block, steps, evals = impl.newton_solve(dt, phi, w, 1)
    assert (stalled, block, steps, evals) == (False, None, 1, 2)
    expected = np.linalg.solve(-_tridiagonal(hdiag, hoff), grad)
    np.testing.assert_allclose(out - phi, expected, rtol=1e-10, atol=1e-12)


@PYTHON_ONLY
def test_interp_to_points_is_linear_interpolation(impl, rng):
    x = np.sort(rng.uniform(0.0, 5.0, 30))
    knot_idx = np.array([0, 4, 11, 17, 29], dtype=np.int64)
    phi_k = rng.normal(-1.0, 0.7, len(knot_idx))
    got = impl.interp_to_points(x, knot_idx, phi_k)
    expected = np.interp(x, x[knot_idx], phi_k)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-14)


@PYTHON_ONLY
def test_aggregate_weights_identity_when_all_points_are_knots(impl, rng):
    x = np.sort(rng.uniform(0.0, 1.0, 9))
    w = rng.uniform(0.1, 1.0, 9)
    knot_idx = np.arange(9, dtype=np.int64)
    np.testing.assert_allclose(impl.aggregate_weights(x, w, knot_idx), w,
                               rtol=1e-15)


@PYTHON_ONLY
def test_aggregate_weights_conserves_mass_and_splits_linearly(impl):
    # one interior point at 1/4 of the way between the two knots: mass splits
    # 3/4 to the left knot, 1/4 to the right
    x = np.array([0.0, 0.25, 1.0])
    w = np.array([0.2, 0.4, 0.4])
    knot_idx = np.array([0, 2], dtype=np.int64)
    got = impl.aggregate_weights(x, w, knot_idx)
    np.testing.assert_allclose(got, [0.2 + 0.75 * 0.4, 0.4 + 0.25 * 0.4],
                               rtol=1e-15)


# ---------------------------------------------------------------------------
# Array oracle: the earlier formulation, with one G-function per moment, each
# evaluating its closed form and its series on every entry with numpy's exp
# and expm1, and the LDL^T sweep on numpy scalars. ``j_values``,
# ``segment_integrals`` and both backends' ``solve_newton_step`` must
# reproduce it to the last bit; so must logcon's step bound, against
# ``test_solver._ref_max_feasible_step``. The knot
# kernels take the C library's exp and expm1 and sum left to right, so they
# agree with it to rounding only.

def _ref_g1(eps):
    eps = np.asarray(eps, dtype=float)
    small = np.abs(eps) < 1e-5
    safe = np.where(small, 1.0, eps)
    series = 1.0 + eps * (0.5 + eps * (1.0 / 6.0 + eps * (1.0 / 24.0)))
    return np.where(small, series, np.expm1(safe) / safe)


def _ref_poly(eps, coeffs):
    out = np.zeros_like(eps) + coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * eps + c
    return out


_REF_G2_COEF = [1.0 / (math.factorial(k) * (k + 2)) for k in range(9)]
_REF_G3_COEF = [1.0 / (math.factorial(k) * (k + 3)) for k in range(9)]


def _ref_g2(eps):
    eps = np.asarray(eps, dtype=float)
    small = np.abs(eps) < 0.05
    safe = np.where(small, 1.0, eps)
    closed = (safe * np.exp(safe) - np.expm1(safe)) / (safe * safe)
    return np.where(small, _ref_poly(eps, _REF_G2_COEF), closed)


def _ref_g3(eps):
    eps = np.asarray(eps, dtype=float)
    small = np.abs(eps) < 0.05
    safe = np.where(small, 1.0, eps)
    ee = np.exp(safe)
    em = np.expm1(safe)
    closed = (safe * safe * ee - 2.0 * (safe * ee - em)) / (safe * safe * safe)
    return np.where(small, _ref_poly(eps, _REF_G3_COEF), closed)


def _ref_j_values(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.exp(np.maximum(a, b)) * _ref_g1(-np.abs(b - a))


def _ref_j_all_partials(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    eps = -np.abs(b - a)
    ehi = np.exp(np.maximum(a, b))
    g1, g2, g3 = _ref_g1(eps), _ref_g2(eps), _ref_g3(eps)
    near1, far1 = ehi * (g1 - g2), ehi * g2
    near2, far2 = ehi * (g1 - 2.0 * g2 + g3), ehi * g3
    b_is_hi = b >= a
    return (np.where(b_is_hi, far1, near1), np.where(b_is_hi, near1, far1),
            np.where(b_is_hi, far2, near2), ehi * (g2 - g3),
            np.where(b_is_hi, near2, far2))


def _ref_knot_grad_hess(dt, phi, weights):
    ja, jb, jaa, jab, jbb = _ref_j_all_partials(phi[:-1], phi[1:])
    jval = _ref_j_values(phi[:-1], phi[1:])
    psi = float(np.dot(weights, phi) - np.dot(dt, jval) + 1.0)
    grad = weights.copy()
    grad[:-1] -= dt * ja
    grad[1:] -= dt * jb
    hd = np.zeros_like(phi)
    hd[:-1] -= dt * jaa
    hd[1:] -= dt * jbb
    return psi, grad, hd, -dt * jab


def _ref_ldl(adiag, aoff, rhs):
    n = adiag.shape[0]
    dref = np.empty(n)
    lsub = np.empty(max(n - 1, 0))
    dref[0] = adiag[0]
    if not (dref[0] > 0.0 and np.isfinite(dref[0])):
        return None
    for i in range(n - 1):
        lsub[i] = aoff[i] / dref[i]
        dref[i + 1] = adiag[i + 1] - aoff[i] * lsub[i]
        if not (dref[i + 1] > 0.0 and np.isfinite(dref[i + 1])):
            return None
    y = np.asarray(rhs, dtype=float).copy()
    for i in range(1, n):
        y[i] -= lsub[i - 1] * y[i - 1]
    with np.errstate(over="ignore"):    # an overflow is rejected below
        y /= dref
    for i in range(n - 2, -1, -1):
        y[i] -= lsub[i] * y[i + 1]
    if not np.all(np.isfinite(y)):
        return None
    return y


def _ref_solve_newton_step(hess_diag, hess_off, grad):
    adiag = -np.asarray(hess_diag, dtype=float)
    aoff = -np.asarray(hess_off, dtype=float)
    delta = 0.0
    base = 1e-12 * (1.0 + float(np.max(np.abs(adiag))))
    for _ in range(60):
        d = _ref_ldl(adiag + delta, aoff, grad)
        if d is not None:
            return d
        delta = base if delta == 0.0 else 2.0 * delta
    raise FloatingPointError("tridiagonal Newton system could not be stabilized")


def _left_to_right_dot(a, b):
    acc = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        acc += x * y
    return acc


def _ref_newton_solve(dt, phi, w, max_steps, rebuild=None):
    """The Newton loop that ``logcon.fit_weighted_logconcave`` ran on one
    knot set before it moved into ``newton_solve``, on numpy arrays: the
    scalar oracle's points, the LDL^T sweep on numpy scalars, the step
    bound of ``test_solver._ref_max_feasible_step``, and the slope summed
    left to right (it was ``ndarray.dot``). At a boundary hit it returns,
    as ``newton_solve`` does; given ``rebuild(block, phi) -> (dt, phi,
    w)``, it drops the knot and runs on in the same loop, as logcon did.
    Returns ``newton_solve``'s tuple, with the total counts."""
    with np.errstate(all="ignore"):
        psi, grad, hd, he, mass = _c_knot_grad_hess(dt, phi, w)
        steps, evals, stalled, block = 0, 1, False, None
        for _ in range(max_steps):
            if float(np.abs(grad).max()) <= 1e-8:
                break
            steps += 1
            step = _ref_solve_newton_step(hd, he, grad)
            slope = _left_to_right_dot(grad, step)
            if not math.isfinite(slope) or slope <= 0.0:
                step = grad.copy()
                slope = _left_to_right_dot(grad, grad)
            alpha_bar, j_block = _ref_max_feasible_step(dt, phi, step)
            alpha = min(1.0, alpha_bar)
            if alpha_bar > 1e-300:
                while alpha > 1e-16:
                    cand = step * alpha
                    cand += phi
                    point = _c_knot_grad_hess(dt, cand, w)
                    evals += 1
                    if point[0] >= psi + 0.25 * alpha * slope:
                        break
                    alpha *= 0.5
                else:
                    stalled = True
                    break
                if point[0] <= psi and alpha != alpha_bar:
                    stalled = True
                    break
                phi = cand
                psi, grad, hd, he, mass = point
            if alpha == alpha_bar:
                if rebuild is None:
                    block = j_block
                    break
                dt, phi, w = rebuild(j_block, phi)
                psi, grad, hd, he, mass = _c_knot_grad_hess(dt, phi, w)
                evals += 1
        return phi, mass, stalled, block, steps, evals


def _solve_bits(solve, *args):
    """What ``solve`` returns, with arrays as bytes, or the message of the
    FloatingPointError it raises."""
    try:
        phi, mass, *rest = solve(*args)
    except FloatingPointError as err:
        return str(err)
    return (phi.tobytes(), mass.tobytes(), *rest)


# Scalar oracle of the knot kernels on both backends: the formulas of
# _kernels_c.c in its order, on Python floats, with math.exp and math.expm1,
# which are the C library's exp and expm1.

def _libm_exp(x):
    try:
        return math.exp(x)
    except OverflowError:   # the C library's exp gives inf
        return math.inf


def _c_parts(a, b):
    """(J, Ja, Jb, Jaa, Jab, Jbb) at one pair."""
    ehi, eps = _libm_exp(a if a >= b else b), -abs(b - a)
    if abs(eps) < 0.05:
        g1 = (1.0 + eps * (0.5 + eps * (1.0 / 6.0 + eps * (1.0 / 24.0)))
              if abs(eps) < 1e-5 else math.expm1(eps) / eps)
        g2, g3 = (float(_ref_poly(np.float64(eps), c)) for c in (_REF_G2_COEF, _REF_G3_COEF))
    else:
        ee, em = math.exp(eps), math.expm1(eps)
        g1 = em / eps
        g2 = (eps * ee - em) / (eps * eps)
        g3 = (eps * eps * ee - 2.0 * (eps * ee - em)) / (eps * eps * eps)
    near1, far1 = ehi * (g1 - g2), ehi * g2
    near2, far2 = ehi * (g1 - 2.0 * g2 + g3), ehi * g3
    if b >= a:
        return ehi * g1, far1, near1, far2, ehi * (g2 - g3), near2
    return ehi * g1, near1, far1, near2, ehi * (g2 - g3), far2


def _scalar_parts(a, b):
    """``_c_parts`` at each pair (a[i], b[i]) of 1-d arrays, as six rows."""
    return np.array([_c_parts(x, y) for x, y in zip(a.tolist(), b.tolist())]).T


def _c_knot_grad_hess(dt, phi, w):
    """(psi, grad, hess_diag, hess_off, mass) of one knot chain from
    ``_c_parts``: the gradient starts from the weights and the diagonal
    from zeros, each segment subtracts its terms from its two knots, and
    psi sums the products w phi and the masses left to right."""
    lin = integral = 0.0
    for wi, pi in zip(w.tolist(), phi.tolist()):
        lin += wi * pi
    grad, hd, he, mass = w.tolist(), [0.0] * phi.size, [], []
    for i, d in enumerate(dt.tolist()):
        j, ja, jb, jaa, jab, jbb = _c_parts(float(phi[i]), float(phi[i + 1]))
        mass.append(d * j)
        integral += d * j
        grad[i] -= d * ja
        grad[i + 1] -= d * jb
        hd[i] -= d * jaa
        hd[i + 1] -= d * jbb
        he.append(-d * jab)
    return lin - integral + 1.0, np.array(grad), np.array(hd), np.array(he), np.array(mass)


def _seam_pairs(rng):
    """(a, b) pairs on both sides of both series radii, exact ties, |phi|
    near 700, and a random spread, in both orientations."""
    diffs = []
    for r in (1e-5, 0.05):
        diffs += [np.nextafter(r, 0.0), r, np.nextafter(r, 1.0)]
    diffs = np.array(diffs)
    a0 = np.concatenate([np.zeros(6), -diffs, np.full(6, 700.0), np.full(6, -700.0)])
    b0 = np.concatenate([diffs, np.zeros(6), 700.0 - diffs, -700.0 + diffs])
    ties = np.array([0.0, -3.25, 699.5, -701.0, 1e-300])
    ra = rng.uniform(-8.0, 6.0, 200)
    rb = ra + rng.normal(0.0, 1.0, 200) * 10.0 ** rng.uniform(-7.0, 0.5, 200)
    a = np.concatenate([a0, b0, ties, ra])
    b = np.concatenate([b0, a0, ties, rb])
    assert np.all(np.isfinite(np.exp(np.maximum(a, b))))
    return a, b


def test_kernels_bit_identical_to_oracle(rng, request):
    a, b = _seam_pairs(rng)
    zeros = np.zeros((3, 3))
    cases = [(a, b),
             (a[:240].reshape(12, 20), b[:240].reshape(12, 20)),  # 2-d, mixed
             (zeros, zeros + 1e-6),     # 2-d, every entry in both series
             (zeros, zeros + 0.01),     # 2-d, every entry in the G2/G3 series
             (zeros + 0.7, zeros)]      # 2-d, closed forms only
    for a, b in cases:
        dx = rng.uniform(0.01, 2.0, a.shape)
        np.testing.assert_array_equal(kpy.j_values(a, b), _ref_j_values(a, b))
        np.testing.assert_array_equal(kpy.segment_integrals(dx, a, b),
                                      dx * _ref_j_values(a, b))
    # 1-d knot values whose neighbours are the pairs above and the gaps
    # between them, so every seam and tie shows up in knot_objective too;
    # without the pairs near 700, no few segments outweigh the rest
    a, b = cases[0]
    phi = np.column_stack((a, b))[np.abs(a) < 100.0].ravel()
    for _ in range(20):   # a summation order that differs shows in some draws
        dt = rng.uniform(0.01, 2.0, phi.size - 1)
        w = rng.uniform(0.0, 1.0, phi.size)
        np.testing.assert_array_equal(kpy.segment_integrals(dt, phi[:-1], phi[1:]),
                                      dt * _ref_j_values(phi[:-1], phi[1:]))
        assert kpy.knot_objective(dt, phi, w) == _c_knot_grad_hess(dt, phi, w)[0]
    # the knot kernels: the scalar oracle's bits, the array oracle's values
    # to rounding (just outside the series radius the closed forms of the
    # second partials turn one ulp of exp into ~7e-13)
    for impl in _both_backends(request):
        for a, b in cases:
            parts = _scalar_parts(a.ravel(), b.ravel())
            full = _ref_j_all_partials(a, b)
            np.testing.assert_array_equal(_j(impl, a.ravel(), b.ravel()), parts[0])
            for got, want, near in zip(_partials(impl, a.ravel(), b.ravel()), parts[1:], full):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_allclose(got, near.ravel(), rtol=1e-12)


@pytest.mark.parametrize("knots", [2, 8, 200])
def test_grad_hess_and_newton_step_bit_identical_to_oracle(rng, request, knots):
    x = np.sort(rng.uniform(-3.0, 3.0, knots))
    phi = -0.5 * x * x - 0.9
    phi[knots // 2:knots // 2 + 2] = phi[knots // 2]      # one flat segment
    if knots > 2:
        phi[1] = phi[0] + 1e-5 * (x[1] - x[0])            # near a series seam
    w = rng.uniform(0.1, 1.0, knots)
    w /= w.sum()
    dt = np.diff(x)
    want = _c_knot_grad_hess(dt, phi, w)
    near = _ref_knot_grad_hess(dt, phi, w)
    assert want[0] == pytest.approx(near[0], rel=1e-13)
    for r, n in zip(want[1:], near[1:]):
        np.testing.assert_allclose(r, n, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(want[4], dt * _ref_j_values(phi[:-1], phi[1:]), rtol=1e-13)
    np.testing.assert_array_equal(kpy.solve_newton_step(*want[2:4], want[1]),
                                  _ref_solve_newton_step(*want[2:4], want[1]))
    solved = [_solve_bits(_ref_newton_solve, dt, phi, w, budget) for budget in (1, 50)]
    for impl in _both_backends(request):
        got = impl.knot_grad_hess(dt, phi, w)
        assert got[0] == want[0]
        for g, r in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(g, r)
        assert [_solve_bits(impl.newton_solve, dt, phi, w, budget)
                for budget in (1, 50)] == solved


def _hard_systems():
    """(hess_diag, hess_off, grad) that the plain LDL^T sweep rejects, so
    the diagonal must be regularized: a zero pivot, a negative one, and
    good pivots whose solution overflows until delta has grown."""
    grad = np.array([0.3, -1.0, 0.2, 0.5])
    hoff = np.array([-0.5, 0.0, -0.25])
    out = [(np.array([-2.0, bad, -1.0, -3.0]), hoff, grad) for bad in (0.0, 1e-9)]
    out.append((np.array([-1e-300, -1e-300]), np.array([0.0]), np.array([1e300, 1.0])))
    return out


NAN_SYSTEM = (np.array([-2.0, np.nan, -1.0, -3.0]), np.array([-0.5, 0.0, -0.25]),
              np.array([0.3, -1.0, 0.2, 0.5]))


# (dt, phi, weights) whose first Newton system the plain LDL^T sweep
# rejects, as _hard_systems' are rejected: a zero pivot (a knot whose only
# segment has zero width), a negative one (a segment of negative width), and
# positive pivots below the normal range, whose solution overflows until
# delta has grown. The regularized step is taken in each, so its bits reach
# phi. Then a NaN system, which no delta stabilizes.
HARD_PROBLEMS = [
    (np.array([0.0, 1.0, 1.0]), np.array([-1.0, -1.0, -1.2, -1.6]),
     np.array([0.0, 0.3, 0.4, 0.3])),
    (np.array([-1e-9, 1.0, 1.0]), np.array([-1.0, -1.0, -1.2, -1.6]),
     np.array([0.0, 0.3, 0.4, 0.3])),
    (np.array([1.0]), np.array([-710.0, -710.0]), np.array([1.0, 0.2])),
]
NAN_PROBLEM = (np.ones(3), np.array([0.0, np.nan, -1.0, -3.0]), np.full(4, 0.25))


def _assert_hard_problems_solve_like_oracle(impl):
    for dt, phi, w in HARD_PROBLEMS:
        with np.errstate(all="ignore"):
            _, grad, hd, he, _ = _c_knot_grad_hess(dt, phi, w)
            assert _ref_ldl(-hd, -he, grad) is None    # needs delta
        for budget in (1, 50):
            want = _solve_bits(_ref_newton_solve, dt, phi, w, budget)
            assert want[0] != phi.tobytes()             # the step was taken
            assert _solve_bits(impl.newton_solve, dt, phi, w, budget) == want
    message = _solve_bits(_ref_newton_solve, *NAN_PROBLEM, 50)
    assert message == "tridiagonal Newton system could not be stabilized"
    assert _solve_bits(impl.newton_solve, *NAN_PROBLEM, 50) == message


def test_newton_step_regularized_and_failing_systems_match_oracle():
    for hdiag, hoff, grad in _hard_systems():
        assert _ref_ldl(-hdiag, -hoff, grad) is None    # needs delta
        np.testing.assert_array_equal(kpy.solve_newton_step(hdiag, hoff, grad),
                                      _ref_solve_newton_step(hdiag, hoff, grad))
    for solve in (kpy.solve_newton_step, _ref_solve_newton_step):
        with pytest.raises(FloatingPointError):
            solve(*NAN_SYSTEM)
    _assert_hard_problems_solve_like_oracle(kpy)


@pytest.mark.parametrize("diff", [3e-6, 0.02, 0.7])   # G1 series, G2/G3 series, closed
def test_scalar_and_0d_inputs_in_each_branch(request, diff):
    a, b = -1.25, -1.25 + diff
    assert float(kpy.j_values(a, b)) == float(_ref_j_values(a, b))
    assert float(kpy.j_values(b, a)) == float(_ref_j_values(b, a))
    a0, b0 = np.array(a), np.array(b)
    assert np.shape(kpy.j_values(a0, b0)) == ()
    assert kpy.j_values(a0, b0) == float(_ref_j_values(a, b))
    assert np.shape(kpy.segment_integrals(2.0, a0, b0)) == ()
    want = list(_c_parts(a, b)[1:])
    for impl in _both_backends(request):
        assert [float(v[0]) for v in _partials(impl, a, b)] == want


# The hand-written Horner forms that ``_kernels_py._series`` replaced, kept
# as its oracles: G1's nested form, G2's and G3's nine-coefficient loop, and
# logcon's hinge-tail loops, highest power first, on floats and in place on
# arrays. ``_series`` must give their bits on floats and on 1-d and 0-d
# arrays.

def _nested_g1(eps):
    return 1.0 + eps * (0.5 + eps * (1.0 / 6.0 + eps * (1.0 / 24.0)))


def _nine_term_series(coef, eps):
    acc = coef[8] * eps + coef[7]
    for c in coef[6::-1]:
        acc = acc * eps + c
    return acc


_TAIL_COEF_HIGH_FIRST = [1.0 / math.factorial(k + 2) for k in range(7, -1, -1)]


def _tail_series_on_floats(z):
    series = _TAIL_COEF_HIGH_FIRST[0] * z + _TAIL_COEF_HIGH_FIRST[1]
    for c in _TAIL_COEF_HIGH_FIRST[2:]:
        series = series * z + c
    return series


def _tail_series_in_place(zn):
    series = _TAIL_COEF_HIGH_FIRST[0] * zn + _TAIL_COEF_HIGH_FIRST[1]
    for c in _TAIL_COEF_HIGH_FIRST[2:]:
        series *= zn
        series += c
    return series


def _bits(v):
    return type(v), np.shape(v), np.asarray(v).tobytes()


def test_series_bit_identical_to_the_forms_it_replaced(rng):
    radii = [float(s * v) for r in (1e-5, 0.05, 0.1)
             for v in (np.nextafter(r, 0.0), r, np.nextafter(r, 1.0))
             for s in (1.0, -1.0)]
    eps = np.concatenate(([0.0, -0.0, 5e-324, 1e-300], radii,
                          rng.uniform(-0.1, 0.1, 400),
                          -(10.0 ** rng.uniform(-12.0, -1.0, 200))))
    cases = [
        (kpy._G1_COEF, _nested_g1, _nested_g1),
        (kpy._G2_COEF, lambda e: _nine_term_series(kpy._G2_COEF, e), None),
        (kpy._G3_COEF, lambda e: _nine_term_series(kpy._G3_COEF, e), None),
        (logcon._TAIL_COEF, _tail_series_on_floats, _tail_series_in_place),
    ]
    for coef, on_floats, on_arrays in cases:
        on_arrays = on_arrays or on_floats
        assert _bits(kpy._series(coef, eps)) == _bits(on_arrays(eps.copy()))
        for e in eps.tolist():
            assert _bits(kpy._series(coef, e)) == _bits(on_floats(e)), (coef, e)
            e0 = np.array(e)
            assert _bits(kpy._series(coef, e0)) == _bits(on_arrays(e0.copy())), (coef, e)


# Neighbour differences for the property tests: ties under either sign of
# zero, each series radius and its neighbours one ulp either side, in both
# orientations, and wide ones.
_SEAMS = [0.0, -0.0] + [float(s * v) for r in (1e-5, 0.05)
                        for v in (np.nextafter(r, 0.0), r, np.nextafter(r, 1.0))
                        for s in (1.0, -1.0)]
_DIFFS = st.one_of(st.sampled_from(_SEAMS), st.floats(-40.0, 40.0))


@st.composite
def _knot_problems(draw, min_dt=0.0):
    """(dt, phi, weights) on 2 to 64 knots, |phi| <= 700. phi starts at 0,
    where every difference above is exact, or anywhere in range; a step that
    would leave the range is taken the other way."""
    r = draw(st.integers(2, 64))
    phi = [draw(st.one_of(st.just(0.0), st.floats(-700.0, 700.0)))]
    for d in draw(st.lists(_DIFFS, min_size=r - 1, max_size=r - 1)):
        phi.append(phi[-1] + d if abs(phi[-1] + d) <= 700.0 else phi[-1] - d)
    widths = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(min_dt, 4.0))
    dt = draw(st.lists(widths, min_size=r - 1, max_size=r - 1))
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=r, max_size=r))
    return np.array(dt), np.array(phi), np.array(w)


def _flat(widths, phi):
    return np.array(widths), np.array(phi), np.zeros(len(phi))


def _assert_knot_kernels_match_oracle(impl, dt, phi, w):
    want = _c_knot_grad_hess(dt, phi, w)
    got = impl.knot_grad_hess(dt, phi, w)
    assert got[0] == want[0]
    for g, r in zip(got[1:], want[1:]):
        assert g.tobytes() == r.tobytes()


# Shrunk counterexamples that hypothesis found for deliberately broken
# kernels, kept as fixed cases: the sign of a zero Hessian entry, the
# partials of a > b swapped with those of a < b, G3's series with G2's
# coefficients, a long chain, where a sum taken in another order shows, and
# a wide segment, where numpy's exp and the C library's differ. The
# compiled kernels meet the same cases in
# ``test_backends_agree_to_the_bit_property``.
@example(_flat([0.5, 0.5, 0.0], [0.0] * 4))
@example(_flat([0.5], [0.0, 1e-5]))
@example(_flat([0.5], [0.0, 0.0]))
@example(_flat([0.5] * 48, [0.0] * 48 + [1e-5]))
@example(_flat([0.5], [0.0, 22.0]))
@settings(max_examples=150, deadline=None)
@given(_knot_problems())
def test_knot_kernels_bit_identical_to_oracle_property(problem):
    dt, phi, w = problem
    _assert_knot_kernels_match_oracle(kpy, dt, phi, w)
    assert kpy.knot_objective(dt, phi, w) == _c_knot_grad_hess(dt, phi, w)[0]


@example(_flat([0.5, 0.5, 0.0], [0.0] * 4))
@example(_flat([0.5], [0.0, 1e-5]))
@example(_flat([0.5] * 48, [0.0] * 48 + [1e-5]))
@example(_flat([0.5], [0.0, 22.0]))
@settings(max_examples=150, deadline=None)
@given(_knot_problems())
def test_knot_grad_hess_masses_are_segment_integrals_property(compiled_kernels, problem):
    # the segment masses that logcon's normalization and multipliers read
    # from knot_grad_hess agree to rounding with the python
    # segment_integrals that logcon.cdf calls, where a mass below the normal
    # range keeps fewer bits than rtol asks for; the Armijo value is
    # knot_objective's psi to the bit
    dt, phi, w = problem
    layout = kpy.segment_integrals(dt, phi[:-1], phi[1:])
    value = kpy.knot_objective(dt, phi, w)
    assert value == _c_knot_grad_hess(dt, phi, w)[0]
    for impl in (kpy, compiled_kernels):
        mass = impl.knot_grad_hess(dt, phi, w)[4]
        np.testing.assert_allclose(mass, layout, rtol=1e-13, atol=np.finfo(float).tiny)
        assert _armijo_value(impl, dt, phi, w) == value


def _ref_integral_grad_terms(x, phi):
    """The array formula that ``integral_grad_terms`` had before it read
    ``knot_grad_hess``, on the scalar oracle's partials: each segment's
    first partials times its width, the left ones added before the right
    ones."""
    dx = np.diff(x)
    ja, jb = _scalar_parts(phi[:-1], phi[1:])[1:3]
    terms = np.zeros_like(phi)
    terms[:-1] += dx * ja
    terms[1:] += dx * jb
    return terms


# Zero-width segments give zero terms, which must stay +0.0 (a plain
# negation of the gradient turns them into -0.0); then a seam, a tie and a
# wide segment, each in both orientations.
@example(_flat([0.5, 0.5, 0.0], [0.0] * 4))
@example(_flat([0.0, 0.5], [3.0, 3.0, 1.0]))
@example(_flat([0.5, 0.5], [0.0, 1e-5, 0.0]))
@example(_flat([0.5, 0.5], [0.0, 0.05, 0.0]))
@example(_flat([0.5, 0.5], [22.0, 0.0, 22.0]))
@settings(max_examples=150, deadline=None)
@given(_knot_problems())
def test_knot_views_bit_identical_to_array_formulas_property(problem):
    # integral_grad_terms and knot_objective are views of knot_grad_hess:
    # the bits of the array formula that integral_grad_terms replaced, and
    # the scalar oracle's psi
    dt, phi, w = problem
    x = np.concatenate(([0.0], np.cumsum(dt)))
    got = kpy.integral_grad_terms(x, phi)
    assert got.tobytes() == _ref_integral_grad_terms(x, phi).tobytes()
    assert kpy.knot_objective(dt, phi, w) == _c_knot_grad_hess(dt, phi, w)[0]


_STEPS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10.0, 10.0))


@st.composite
def _step_problems(draw):
    """(dt, phi, step): a knot chain of positive widths and a direction."""
    dt, phi, _ = draw(_knot_problems(min_dt=1e-3))
    step = draw(st.lists(_STEPS, min_size=phi.size, max_size=phi.size))
    return dt, phi, np.array(step)


# two constraints block at the same ratio: the first one wins, as argmin's
@example((np.full(3, 0.5), np.zeros(4), np.array([1.0, 0.0, 0.0, 1.0])))
@settings(max_examples=100, deadline=None)
@given(_step_problems())
def test_max_feasible_step_matches_oracle_property(problem):
    dt, phi, step = problem
    want = _ref_max_feasible_step(dt, phi, step)
    got = _max_feasible_step(dt, phi, step)
    assert got == want
    assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])


# 710.0: exp(phi) overflows, where math.exp raises and the C library's exp
# gives inf
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 710.0])
def test_knot_kernels_match_oracle_on_non_finite_values(rng, request, bad):
    dt = rng.uniform(0.1, 1.0, 7)
    w = rng.uniform(0.0, 1.0, 8)
    phis = []
    for at in ([0], [3], [7], [3, 4], [0, 7]):
        phi = np.cumsum(rng.uniform(-1.0, 1.0, 8))
        phi[at] = bad
        phis.append(phi)
    with np.errstate(all="ignore"):
        for phi in phis:
            np.testing.assert_array_equal(kpy.knot_objective(dt, phi, w),
                                          _c_knot_grad_hess(dt, phi, w)[0])
        for impl in _both_backends(request):
            for phi in phis:
                want = _c_knot_grad_hess(dt, phi, w)
                got = impl.knot_grad_hess(dt, phi, w)
                np.testing.assert_array_equal(got[0], want[0])
                for g, r in zip(got[1:], want[1:]):
                    np.testing.assert_array_equal(g, r)   # NaN payloads aside


def test_backends_agree_to_the_bit(rng, compiled_kernels):
    kc = compiled_kernels
    a = rng.uniform(-8.0, 5.0, 200)
    b = a + rng.uniform(-2.0, 2.0, 200)
    b[::11] = a[::11]
    b[::13] = a[::13] + rng.uniform(-0.05, 0.05, b[::13].size)   # G2/G3 series
    np.testing.assert_array_equal(_j(kpy, a, b), _j(kc, a, b))
    for py_col, c_col in zip(_partials(kpy, a, b), _partials(kc, a, b)):
        np.testing.assert_array_equal(py_col, c_col)
    dx = rng.uniform(0.01, 1.0, 200)
    np.testing.assert_array_equal(_masses(kpy, dx, a, b), _masses(kc, dx, a, b))
    x = np.sort(rng.uniform(0, 4, 40))
    w = rng.uniform(0.1, 1, 40)
    w /= w.sum()
    phi = np.cumsum(rng.uniform(-0.3, 0.3, 40))
    assert _armijo_value(kc, np.diff(x), phi, w) == _armijo_value(kpy, np.diff(x), phi, w)
    got = kc.knot_grad_hess(np.diff(x), phi, w)
    want = kpy.knot_grad_hess(np.diff(x), phi, w)
    assert got[0] == want[0]
    for py_part, c_part in zip(want[1:], got[1:]):
        np.testing.assert_array_equal(py_part, c_part)
    # the first step solves the Newton system of that point
    for budget in (1, 50):
        assert (_solve_bits(kc.newton_solve, np.diff(x), phi, w, budget)
                == _solve_bits(kpy.newton_solve, np.diff(x), phi, w, budget))


# the fixed cases of test_knot_kernels_bit_identical_to_oracle_property
@example(_flat([0.5, 0.5, 0.0], [0.0] * 4), 50)
@example(_flat([0.5], [0.0, 1e-5]), 50)
@example(_flat([0.5], [0.0, 0.0]), 50)
@example(_flat([0.5] * 48, [0.0] * 48 + [1e-5]), 50)
@example(_flat([0.5], [0.0, 22.0]), 50)
@settings(max_examples=150, deadline=None)
@given(_knot_problems(), st.integers(0, 50))
def test_backends_agree_to_the_bit_property(compiled_kernels, problem, budget):
    # both knot kernels, at a knot chain, and newton_solve from it: one
    # step, which solves the Newton system of the chain (zero widths can
    # make that singular, so that the sweep needs delta), and a drawn
    # budget, for phi, masses, status, blocking knot and both counts; the
    # compiled knot_grad_hess has the scalar oracle's bits, as the python
    # one has in test_knot_kernels_bit_identical_to_oracle_property
    dt, phi, w = problem
    _assert_knot_kernels_match_oracle(compiled_kernels, dt, phi, w)
    py, c = (impl.knot_grad_hess(dt, phi, w) for impl in (kpy, compiled_kernels))
    assert py[0] == c[0]
    for py_part, c_part in zip(py[1:], c[1:]):
        assert py_part.tobytes() == c_part.tobytes()
    for steps in (1, budget):
        assert (_solve_bits(kpy.newton_solve, dt, phi, w, steps)
                == _solve_bits(compiled_kernels.newton_solve, dt, phi, w, steps))


@example(_flat([0.5, 0.5, 0.0], [0.0] * 4), 50)
@example(_flat([0.5], [0.0, 22.0]), 50)
@settings(max_examples=40, deadline=None)
@given(_knot_problems(), st.integers(0, 50))
def test_newton_solve_is_the_loop_it_replaced_property(problem, budget):
    # the python newton_solve gives the bits of logcon's former Newton loop
    # on numpy arrays, whose slope is now summed left to right
    dt, phi, w = problem
    assert (_solve_bits(kpy.newton_solve, dt, phi, w, budget)
            == _solve_bits(_ref_newton_solve, dt, phi, w, budget))


def test_compiled_newton_step_on_regularized_and_failing_systems(compiled_kernels):
    _assert_hard_problems_solve_like_oracle(compiled_kernels)


# Hand cases of newton_solve: (dt, phi, weights, budget, and what it
# returns besides phi and the masses: stalled, block, steps, evals).
NEWTON_CASES = {
    # collinear knots and a step that would bend them convex: alpha_bar is
    # 0, so knot 1 (the first of the tied ratios) turns active unmoved
    "blocked_at_once": ((np.ones(3), np.arange(4.0), np.array([0.5, 0.0, 0.0, 0.5]), 5),
                        (False, 1, 1, 1)),
    # a width below 1/DBL_MAX makes its inverse infinite: the curvature
    # ratio at knot 1 is inf/inf, which frees the step
    "nan_ratio": ((np.array([1.0, 5e-324, 1.0]), np.array([-2.0, -0.2, -0.3, 1.0]),
                   np.array([0.8, 0.4, 0.9, 0.4]), 1), (False, None, 1, 4)),
    # the step of a far tail overflows every trial point: 54 halvings
    # bring alpha below 1e-16 without meeting the Armijo condition
    "stalled_search": ((np.array([1.8]), np.array([-20.0, -80.0]),
                        np.array([6e7, 2e7]), 50), (True, None, 1, 55)),
    # weights of 1e8 leave psi too coarse for the gradient test: the line
    # search accepts a point that is no higher, and the step is not taken
    "no_gain": ((np.array([0.4]), np.zeros(2), np.array([5e7, 6e7]), 50),
                (True, None, 8, 36)),
    # no interior knot, so no step bound: Newton runs to the gradient test
    "two_knots": ((np.ones(1), np.zeros(2), np.array([0.3, 0.7]), 50),
                  (False, None, 5, 6)),
    # phi near 706 gives masses near 1e308, whose sums overflow: the Newton
    # slope g.d is inf, so the step falls back to the gradient, which knot
    # 1 blocks at once
    "ascent_fallback": ((np.array([30.59302801026119, 99.6823233792533,
                                   10.898173317158996, 56.405071391206285]),
                         np.array([706.0036979770663, 703.4579901421538,
                                   705.0047324644067, 703.4874971021299,
                                   706.5772521625153]),
                         np.array([0.036474570207464814, 0.030055539304757774,
                                   0.063281253629402, 0.32468820371484686,
                                   0.5455004331435285]), 3),
                        (False, 1, 1, 1)),
}


@pytest.mark.parametrize("case", sorted(NEWTON_CASES))
def test_newton_solve_hand_cases(impl, case, monkeypatch):
    (dt, phi, w, budget), status = NEWTON_CASES[case]
    want = _solve_bits(_ref_newton_solve, dt, phi, w, budget)
    assert want[2:] == status
    assert _solve_bits(impl.newton_solve, dt, phi, w, budget) == want
    if case == "ascent_fallback" and impl is kpy:
        # the one step was bounded along the start's gradient: the fallback ran
        directions, bound = [], kpy._step_bound

        def record(inv_dt, p, direction):
            directions.append(direction)
            return bound(inv_dt, p, direction)

        monkeypatch.setattr(kpy, "_step_bound", record)
        kpy.newton_solve(dt, phi, w, budget)
        assert directions == [kpy._grad_hess(dt.tolist(), phi.tolist(), w.tolist())[1]]
    if case == "nan_ratio":
        with np.errstate(all="ignore"):
            _, grad, hd, he, _ = _c_knot_grad_hess(dt, phi, w)
            step = _ref_solve_newton_step(hd, he, grad)
            slopes = np.diff(step) / dt
            assert np.nanmin(slopes[:-1] - slopes[1:]) < -1e-300  # a constraint blocks ...
            assert _ref_max_feasible_step(dt, phi, step) == (math.inf, None)  # ... yet frees
    if case in ("blocked_at_once", "stalled_search"):
        assert want[0] == phi.tobytes()     # the one step was not taken


def _drop_knot(x, w, kidx):
    """A ``rebuild`` for ``_ref_newton_solve`` on the points x with weights
    w, starting from the knots x[kidx]: the knot set that logcon forms
    after a boundary hit, with the weights aggregated onto it."""
    def rebuild(block, phi):
        del kidx[block]
        return np.diff(x[kidx]), np.delete(phi, block), kpy.aggregate_weights(x, w, kidx)
    return rebuild


def _round_by_kernel(solve, x, w, budget):
    """logcon's use of ``newton_solve`` in one round from every point as a
    knot: after each boundary hit, drop the knot, rebuild the knot set and
    call again with what is left of the budget."""
    kidx = list(range(x.size))
    phi = -0.5 * (x - 2.0) ** 2
    hits = steps_total = evals_total = 0
    while True:
        phi, mass, stalled, block, steps, evals = solve(
            np.diff(x[kidx]), phi, kpy.aggregate_weights(x, w, kidx), budget)
        steps_total += steps
        evals_total += evals
        if block is None:
            return (kidx, phi.tobytes(), mass.tobytes(), stalled, steps_total,
                    evals_total), hits
        hits += 1
        budget -= steps
        del kidx[block]
        phi = np.delete(phi, block)


def test_newton_solve_shares_a_round_budget_across_boundary_hits(impl):
    # six boundary hits, one step apart: every budget from 0 to 12 runs
    # out before, between or after them, and the calls with what is left
    # of it give the bits and counts of the former loop, which went on
    # after each drop within one count of steps
    x = np.array([0.11, 0.28, 0.51, 0.52, 0.59, 2.0, 2.41, 3.71])
    w = np.array([9.0, 6.0, 4.0, 5.0, 7.0, 3.0, 1.0, 8.0]) / 43.0
    hits_seen = set()
    for budget in range(13):
        got, hits = _round_by_kernel(impl.newton_solve, x, w, budget)
        kidx = list(range(x.size))
        phi, mass, stalled, _, steps, evals = _ref_newton_solve(
            np.diff(x), -0.5 * (x - 2.0) ** 2, w, budget, rebuild=_drop_knot(x, w, kidx))
        assert got == (kidx, phi.tobytes(), mass.tobytes(), stalled, steps, evals), budget
        hits_seen.add(hits)
    assert hits_seen == set(range(7))


def test_compiled_kernels_bit_identical_to_scalar_formulas(rng, compiled_kernels):
    # setup.py builds with -ffp-contract=off, so no multiply-add is fused
    # whatever CFLAGS the build is given
    kc = compiled_kernels
    a, b = _seam_pairs(rng)
    parts = _scalar_parts(a, b)
    np.testing.assert_array_equal(_j(kc, a, b), parts[0])
    for got, want in zip(_partials(kc, a, b), parts[1:]):
        np.testing.assert_array_equal(got, want)
    dx = rng.uniform(0.01, 2.0, a.size)
    np.testing.assert_array_equal(_masses(kc, dx, a, b), dx * parts[0])
    # the knot kernels sum left to right over the segments of one chain
    phi = np.column_stack((a, b))[np.abs(a) < 100.0].ravel()
    dt = rng.uniform(0.01, 2.0, phi.size - 1)
    w = rng.uniform(0.0, 1.0, phi.size)
    got = kc.knot_grad_hess(dt, phi, w)
    want = _c_knot_grad_hess(dt, phi, w)
    assert got[0] == want[0]
    for g, r in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(g, r)


# (kernel, arguments, the argument that the error names); the first two
# read past the end of an input before the lengths were checked. The python
# knot_objective has no compiled twin, so the compiled tests skip its rows;
# it is a view, so the kernel it reads names the argument.
VIEW_OF = {"knot_objective": "knot_grad_hess"}
BAD_CALLS = [
    ("knot_grad_hess", (np.ones(4), np.zeros(5), np.ones(2)), "weights"),
    ("knot_objective", (np.ones(1), np.zeros(5), np.ones(5)), "dt"),
    ("knot_objective", (np.ones(0), np.zeros(1), np.ones(1)), "phi"),
    ("knot_grad_hess", (np.ones(0), np.zeros(1), np.ones(1)), "phi"),
    ("knot_grad_hess", (np.ones((1, 1)), np.zeros(2), np.ones(2)), "dt"),
    ("solve_newton_step", (-np.ones(3), np.zeros(3), np.ones(3)), "hess_off"),
    ("solve_newton_step", (-np.ones(3), np.zeros(2), np.ones(2)), "grad"),
    ("solve_newton_step", (-np.ones(1), np.zeros(0), np.ones(1)), "hess_diag"),
    ("newton_solve", (np.ones(4), np.zeros(5), np.ones(2), 50), "weights"),
    ("newton_solve", (np.ones(1), np.zeros(5), np.ones(5), 50), "dt"),
    ("newton_solve", (np.ones(0), np.zeros(1), np.ones(1), 50), "phi"),
]


COMPILED_BAD_CALLS = [row for row in BAD_CALLS if row[0] in kernels._CONTRACT]


@pytest.mark.parametrize("fn, args, name", COMPILED_BAD_CALLS,
                         ids=[f"{fn}-{name}" for fn, _, name in COMPILED_BAD_CALLS])
def test_compiled_kernels_reject_wrong_shapes(compiled_kernels, fn, args, name):
    with pytest.raises(ValueError, match=f"{fn}: {name} "):
        getattr(compiled_kernels, fn)(*args)


# the knot kernels check their lengths on the python backend too
@pytest.mark.parametrize("fn, args, name", BAD_CALLS,
                         ids=[f"{fn}-{name}" for fn, _, name in BAD_CALLS])
def test_python_knot_kernels_reject_wrong_shapes(fn, args, name):
    with pytest.raises(ValueError, match=f"{VIEW_OF.get(fn, fn)}: {name} "):
        getattr(kpy, fn)(*args)


@pytest.mark.parametrize("fn, args, name", COMPILED_BAD_CALLS,
                         ids=[f"{fn}-{name}" for fn, _, name in COMPILED_BAD_CALLS])
def test_both_backends_word_shape_errors_alike(compiled_kernels, fn, args, name):
    messages = []
    for impl in (kpy, compiled_kernels):
        with pytest.raises(ValueError) as err:
            getattr(impl, fn)(*args)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_compiled_kernels_take_exactly_their_arguments(compiled_kernels):
    with pytest.raises(TypeError):
        compiled_kernels.newton_solve(np.ones(1), np.zeros(2), np.ones(2))
    with pytest.raises(TypeError):
        compiled_kernels.knot_grad_hess(np.ones(1), np.zeros(2), np.ones(2), None)
    # a budget must be an integer, on either backend
    messages = []
    for impl in (kpy, compiled_kernels):
        with pytest.raises(TypeError) as err:
            impl.newton_solve(np.ones(1), np.zeros(2), np.ones(2), 1.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# the cells of test_golden's pinned EM run
EM_CELLS = [(m, p) for m in range(1, 7) for p in (0.1, 0.9)]


def _em_result_bits(r):
    return (np.float64(r.p_hat).tobytes(), r.omega.tobytes(), r.fit.knots.tobytes(),
            r.fit.phi.tobytes(), r.loglik_trace.tobytes(), r.iterations, r.converged,
            r.degenerate)


@pytest.mark.parametrize("cell", range(len(EM_CELLS)),
                         ids=[f"model{m}-p{p}" for m, p in EM_CELLS])
def test_run_em_agrees_across_backends(compiled_kernels, python_backend, cell):
    model, p = EM_CELLS[cell]
    spec = model_catalog()[model]
    values, _ = sample_mixture(spec.known, spec.unknown, p, 200,
                               child_seed(20190326, cell))
    want = run_em(values, spec.known)
    kernels.set_backend("compiled")
    got = run_em(values, spec.known)
    assert _em_result_bits(got) == _em_result_bits(want)


def _kernels_logcon_uses():
    tree = ast.parse(Path(logcon.__file__).read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "K"}


def test_kernel_contract_is_what_logcon_calls(compiled_kernels):
    # the contract is exactly as wide as its caller: every K.<name> in
    # logcon.py, and the compiled module exports those names and no others
    assert _kernels_logcon_uses() == set(kernels._CONTRACT)
    exported = {name for name in dir(compiled_kernels) if not name.startswith("_")}
    assert exported == set(kernels._CONTRACT)


def test_backend_selection_roundtrip():
    original = kernels.BACKEND
    try:
        for name in kernels.available_backends():
            kernels.set_backend(name)
            assert kernels.BACKEND == name
            mass = kernels.knot_grad_hess(np.ones(1), np.zeros(2), np.zeros(2))[4]
            assert mass[0] == pytest.approx(1.0)
    finally:
        kernels.set_backend(original)


def test_set_backend_rejects_unknown_name():
    with pytest.raises(ValueError):
        kernels.set_backend("fortran77")

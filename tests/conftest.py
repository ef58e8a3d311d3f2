"""Shared test fixtures and independent oracle helpers.

The helpers here deliberately avoid the package's own numerical kernels so
they can serve as cross-checks: the segment integral of ``exp(phi)`` is
evaluated with the plain ``expm1`` closed form, and the reference maximizer
parameterizes the concavity constraint structurally (first value, first
slope, nonnegative slope decrements) so a generic box-constrained optimizer
can solve the same problem the package's active-set Newton method solves.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

ROOT = Path(__file__).resolve().parent.parent


def independent_objective(points, weights, phi) -> float:
    """sum(w * phi) - integral(e^phi) + 1 for piecewise-linear phi."""
    lin = float(np.dot(np.asarray(weights, dtype=float), np.asarray(phi, dtype=float)))
    return lin - independent_integral(points, phi) + 1.0


def independent_integral(knots, phi) -> float:
    """integral of e^phi over the knot range, expm1 closed form."""
    x = np.asarray(knots, dtype=float)
    ph = np.asarray(phi, dtype=float)
    integral = 0.0
    for j in range(len(x) - 1):
        dx = x[j + 1] - x[j]
        a, b = ph[j], ph[j + 1]
        d = b - a
        if abs(d) < 1e-12:
            integral += dx * math.exp(0.5 * (a + b))
        else:
            integral += dx * math.exp(a) * math.expm1(d) / d
    return integral


def optimality_certificate(points, weights, knots, phi):
    """How far a fit is from the weighted log-concave MLE, by Duembgen,
    Huesler & Rufibach's (2007) characterization, on Python floats and
    without the package's code.

    With x_1 < ... < x_m the sample's points and w its weights, F the fit's
    CDF from x_1, H(t) the integral of F from x_1 to t and
    Hn(t) = sum_i w_i (t - x_i)_+, the fit is the MLE if and only if H <= Hn
    at every point, with equality at every knot, and F(x_m) = 1. H - Hn is
    convex between points, so the points suffice. Returns three numbers:
    max (H - Hn)/span over the points, max |H - Hn|/span over the knots and
    |F(x_m) - 1|. Dividing by the span makes the first two scale-free.
    Each knot segment's integrals are expm1 closed forms factored at the
    larger end of e^phi, with series where they cancel.
    """
    x = [float(v) for v in points]
    w = [float(v) for v in weights]
    t = [float(v) for v in knots]
    ph = [float(v) for v in phi]
    assert t[0] == x[0] and t[-1] == x[-1], "the fit must span the sample"
    span = x[-1] - x[0]
    on_knot = set(t)
    k = 0
    h_k = f_k = 0.0  # H and F at knot k
    hn = below = 0.0  # Hn at the point, and the weight below it
    prev = x[0]
    worst = -math.inf
    at_knots = 0.0
    f = 0.0
    for xj, wj in zip(x, w):
        hn += below * (xj - prev)
        while xj > t[k + 1]:
            h_k, f_k = _integrals_from(t, ph, k, h_k, f_k, t[k + 1] - t[k])
            k += 1
        h, f = _integrals_from(t, ph, k, h_k, f_k, xj - t[k])
        gap = (h - hn) / span
        worst = max(worst, gap)
        if xj in on_knot:
            at_knots = max(at_knots, abs(gap))
        below += wj
        prev = xj
    return worst, at_knots, abs(f - 1.0)


def assert_certified(sample, fit):
    """The fit of ``sample`` passes the certificate: H - Hn at most 1e-7 of
    the span at every point and within it at every knot, and F(x_m) within
    1e-12 of 1."""
    above, at_knots, mass = optimality_certificate(
        sample.points, sample.weights, fit.knots, fit.phi)
    assert above <= 1e-7, above
    assert at_knots <= 1e-7, at_knots
    assert mass <= 1e-12, mass


def _integrals_from(t, ph, k, h_k, f_k, u):
    """H and F at t_k + u inside knot segment k, from their values at t_k:
    F gains the mass of e^phi over [t_k, t_k + u] and H gains u F(t_k) plus
    the integral of (t_k + u - r) e^phi(r) there, each e^phi factored at the
    larger end of that interval."""
    s = (ph[k + 1] - ph[k]) / (t[k + 1] - t[k])
    z = s * u
    if s <= 0.0:
        e = math.exp(ph[k])
        mass, tail = e * u * _mean_exp(z), e * u * u * _mean_exp_falling(z)
    else:
        e = math.exp(ph[k] + z)
        mass, tail = e * u * _mean_exp(-z), e * u * u * _mean_exp_rising(-z)
    return h_k + f_k * u + tail, f_k + mass


def _mean_exp(y):
    """integral_0^1 e^(y r) dr = expm1(y) / y."""
    return math.expm1(y) / y if y != 0.0 else 1.0


def _mean_exp_falling(y):
    """integral_0^1 (1 - r) e^(y r) dr = (expm1(y) - y) / y^2."""
    if abs(y) < 0.1:
        return sum(y ** n / math.factorial(n + 2) for n in range(12))
    return (math.expm1(y) - y) / y / y


def _mean_exp_rising(y):
    """integral_0^1 r e^(y r) dr = ((y - 1) expm1(y) + y) / y^2."""
    if abs(y) < 0.1:
        return sum(y ** n / (math.factorial(n) * (n + 2)) for n in range(12))
    return ((y - 1.0) * math.expm1(y) + y) / y / y


def trapezoid(y, x) -> float:
    """The trapezoid rule over 1-d samples y at points x, in the arithmetic
    of numpy's ``trapezoid`` (numpy >= 2.0) and ``trapz``, so it gives
    their bits on any numpy the package supports."""
    y = np.asarray(y, dtype=float)
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


def reference_concave_mle(points, weights):
    """Grid-start + polish reference maximizer for small point sets.

    Parameterization: theta = (phi[0], slope[0], dec[0], ..., dec[m-3]) with
    slope[j+1] = slope[j] - dec[j] and dec >= 0, so every feasible theta is
    exactly a concave piecewise-linear phi. The objective is concave in phi
    and phi is affine in theta, so L-BFGS-B from any start finds the global
    maximum; several starts guard against line-search stalls.
    Returns (phi, objective).
    """
    x = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = len(x)
    dx = np.diff(x)

    def phi_from(theta):
        slopes = theta[1] - np.concatenate([[0.0], np.cumsum(theta[2:])])
        phi = np.empty(m)
        phi[0] = theta[0]
        for j in range(m - 1):
            phi[j + 1] = phi[j] + slopes[j] * dx[j]
        return phi

    def neg(theta):
        return -independent_objective(x, w, phi_from(theta))

    span = x[-1] - x[0]
    bounds = [(None, None), (None, None)] + [(0.0, None)] * max(0, m - 2)
    best = None
    for s0 in (-6.0, -1.0, 0.0, 1.0, 6.0):
        theta0 = np.concatenate(
            [[-math.log(span) - abs(s0) * span / 2.0], [s0],
             np.zeros(max(0, m - 2))])
        res = minimize(neg, theta0, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res
    return phi_from(best.x), -best.fun


def random_small_sample(rng, m):
    """Random sorted points in [0, 1] with spacing >= 1e-3, random weights."""
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, m))
        if np.all(np.diff(pts) >= 1e-3):
            break
    w = rng.uniform(0.2, 1.0, m)
    return pts, w / w.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def python_backend():
    """Start the test on the python kernels, for a test that runs both
    backends in turn; the backend that was active comes back afterwards."""
    from logconmix import kernels

    active = kernels.BACKEND
    kernels.set_backend("python")
    yield
    kernels.set_backend(active)


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The compiled kernels module, ``logconmix._kernels_c``.

    A module that already imports (one built in place) is used as it is.
    Otherwise ``setup.py build_ext`` builds it from ``_kernels_c.c`` into a
    temporary build directory, never into ``src/``, and it is loaded under
    its package name, so ``kernels.set_backend("compiled")`` finds it too.
    Skips only when there is no C compiler or no ``Python.h``.
    """
    import logconmix

    try:
        from logconmix import _kernels_c
        return _kernels_c
    except ImportError:
        pass
    cc = (sysconfig.get_config_var("CC") or "gcc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernels")
    if not Path(sysconfig.get_paths()["include"], "Python.h").exists():
        pytest.skip("Python.h is missing, so the compiled kernels cannot be built")
    tmp = tmp_path_factory.mktemp("kernels_c")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp / "lib"),
         "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    built = [p for suffix in importlib.machinery.EXTENSION_SUFFIXES
             for p in (tmp / "lib" / "logconmix").glob("_kernels_c" + suffix)]
    if not built:
        pytest.fail("building the compiled kernels failed:\n" + proc.stdout + proc.stderr)
    spec = importlib.util.spec_from_file_location("logconmix._kernels_c", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["logconmix._kernels_c"] = module
    logconmix._kernels_c = module
    return module

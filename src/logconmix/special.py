"""Special functions needed by the t-statistic pipeline.

Only the regularized incomplete beta function and the Student-t CDF built on
it live here. Both are evaluated with the modified Lentz continued fraction,
which converges to near machine precision for every argument combination the
package produces (degrees of freedom >= 1, finite t).

The continued fraction runs on arrays: :func:`student_t_two_sided_p` takes
an array of t, and all entries iterate at once, each leaving when it
converges. Every entry sees the floating-point operations of a scalar
evaluation in the same order, so a p-value does not depend on the other
entries. The prefactor is a per-entry ``math`` loop, because numpy's ``exp``
and ``log1p`` may differ from ``math``'s in the last bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["regularized_incomplete_beta", "student_t_cdf", "student_t_two_sided_p"]

_MAX_ITER = 500
_EPS = 1e-15          # continued-fraction convergence: |delta - 1| below this
_FPMIN = 1e-300       # floor to keep Lentz denominators away from 0


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz) at each
    entry of the 1-d ``x``; an entry drops out of the arrays once it
    converges."""
    out = np.empty_like(x)
    if not x.size:
        return out
    left = np.arange(x.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[np.abs(d) < _FPMIN] = _FPMIN
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = 1.0 + aa / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = 1.0 + aa / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[left[done]] = h[done]
            if done.all():
                return out
            keep = ~done
            left, x, c, d, h = (v[keep] for v in (left, x, c, d, h))
    raise RuntimeError(f"incomplete beta continued fraction did not converge "
                       f"(a={a}, b={b}, x={x[0]}, entry {int(left[0])})")


def _incomplete_beta(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """I_x(a, b) for each entry of the 1-d ``x`` in [0, 1], for a, b > 0."""
    out = np.where(x == 0.0, 0.0, 1.0)
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    xi = x[inner]
    ln_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = np.fromiter((math.exp(ln_beta + a * math.log(v) + b * math.log1p(-v))
                         for v in xi), float, xi.size)
    # The continued fraction converges fastest on the side of the symmetry
    # point; use I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    lower = xi < (a + 1.0) / (a + b + 2.0)
    upper = ~lower
    values = np.empty_like(xi)
    values[lower] = front[lower] * _betacf(a, b, xi[lower]) / a
    values[upper] = 1.0 - front[upper] * _betacf(b, a, 1.0 - xi[upper]) / b
    out[inner] = values
    return out


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for finite a, b > 0 and x in [0, 1]."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        # a NaN or infinite shape would otherwise run the continued fraction
        # to its iteration cap
        raise ValueError(f"shape parameters must be positive and finite, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return float(_incomplete_beta(a, b, np.array([float(x)]))[0])


def _check_df(df: float) -> None:
    # a NaN would otherwise run the continued fraction to its iteration cap,
    # and an infinite df makes x = df / (df + t*t) NaN
    if not 0.0 < df < math.inf:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df}")


def _check_t_args(t: float, df: float) -> None:
    _check_df(df)
    if math.isnan(t):
        raise ValueError("t statistic is NaN")


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for T ~ Student-t with ``df`` degrees of freedom."""
    _check_t_args(t, df)
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def student_t_two_sided_p(t, df: float):
    """Two-sided tail probability 2 * P(T >= |t|), without cancellation.

    ``t`` is a float, or an array that gives an array of the same shape.
    """
    tv = np.asarray(t, dtype=float)
    _check_df(df)
    if np.isnan(tv).any():
        raise ValueError("t statistic is NaN")
    # t = +-inf gives x = 0 and p = 0; t = 0 gives x = 1 and p = 1; a
    # t * t that overflows is inf, as for a Python float
    with np.errstate(over="ignore"):
        x = df / (df + tv * tv)
    p = _incomplete_beta(0.5 * df, 0.5, x.ravel()).reshape(tv.shape)
    return float(p) if p.ndim == 0 else p

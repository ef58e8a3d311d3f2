"""Student-t CDF and regularized incomplete beta, checked against frozen
40-digit reference values, closed forms, and scipy.special."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.special as sps

from logconmix import special
from logconmix.special import (regularized_incomplete_beta, student_t_cdf,
                               student_t_two_sided_p)

# mpmath (dps=40) values of the regularized incomplete beta I_x(a, b)
BETA_TABLE = [
    (2.5, 3.5, 0.4, 0.4869041915261173978),
    (9.0, 0.5, 0.98, 0.55202136398870832518),
    (0.5, 0.5, 0.5, 0.5),              # symmetry point, exact
]

# mpmath (dps=40) values of the Student-t CDF; (1, df=2) is the closed form
# (1 + 1/sqrt(3)) / 2
T_CDF_TABLE = [
    (1.0, 2.0, 0.78867513459481289828),
    (1.3, 5.0, 0.8748496829146613952),
    (2.1, 18.0, 0.97495479714521582123),
    (-0.7, 3.0, 0.26716349915238186057),
]


def test_regularized_incomplete_beta_reference_values():
    for a, b, x, expected in BETA_TABLE:
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            expected, rel=1e-12)


def test_regularized_incomplete_beta_endpoints():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    for x in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="x must lie"):
            regularized_incomplete_beta(2.0, 3.0, x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("which", ["a", "b"])
def test_regularized_incomplete_beta_rejects_shapes_outside_zero_inf(bad, which):
    # checked before the symmetry step swaps a and b, so the message names
    # them as passed, and before the continued fraction runs (and warns)
    a, b = (bad, 1.0) if which == "a" else (1.0, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"got a={a}, b={b}$"):
            regularized_incomplete_beta(a, b, 0.5)


def test_regularized_incomplete_beta_matches_scipy():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = float(rng.uniform(0.2, 20.0))
        b = float(rng.uniform(0.2, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            float(sps.betainc(a, b, x)), rel=1e-10, abs=1e-13)


def test_student_t_cdf_reference_values():
    for t, df, expected in T_CDF_TABLE:
        assert student_t_cdf(t, df) == pytest.approx(expected, rel=1e-13)


def test_student_t_cdf_matches_scipy():
    for df in (1.0, 2.0, 5.0, 18.0, 100.0):
        for t in np.linspace(-6.0, 6.0, 61):
            assert student_t_cdf(float(t), df) == pytest.approx(
                float(sps.stdtr(df, t)), rel=1e-11, abs=1e-14)


def test_student_t_cdf_symmetry_and_center():
    assert student_t_cdf(0.0, 7.0) == pytest.approx(0.5, abs=1e-15)
    for t in (0.3, 1.7, 4.2):
        assert student_t_cdf(-t, 9.0) == pytest.approx(
            1.0 - student_t_cdf(t, 9.0), abs=1e-14)


def test_two_sided_p_basics():
    assert student_t_two_sided_p(0.0, 4.0) == pytest.approx(1.0, abs=1e-15)
    assert student_t_two_sided_p(math.inf, 4.0) == 0.0
    assert student_t_two_sided_p(-math.inf, 4.0) == 0.0
    # symmetric in the sign of t
    assert student_t_two_sided_p(1.9, 11.0) == pytest.approx(
        student_t_two_sided_p(-1.9, 11.0), abs=1e-15)
    # closed form at (sqrt(2), df=2): p = 1 - sqrt(2)/2
    assert student_t_two_sided_p(math.sqrt(2.0), 2.0) == pytest.approx(
        1.0 - math.sqrt(2.0) / 2.0, rel=1e-14)


def test_two_sided_p_matches_scipy_sf():
    rng = np.random.default_rng(11)
    for _ in range(100):
        t = float(rng.uniform(-8.0, 8.0))
        df = float(rng.uniform(1.0, 60.0))
        assert student_t_two_sided_p(t, df) == pytest.approx(
            2.0 * float(sps.stdtr(df, -abs(t))), rel=1e-10, abs=1e-14)


def test_two_sided_p_decreasing_in_magnitude():
    ps = [student_t_two_sided_p(t, 6.0) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("function", [student_t_cdf, student_t_two_sided_p])
def test_t_functions_reject_nan_and_nonpositive_df(function):
    with pytest.raises(ValueError, match="NaN"):
        function(math.nan, 4.0)
    # unchecked, df = inf makes x = df / (df + t*t) NaN, which the two-sided
    # p turns into 1.0 for every t
    for df in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="degrees of freedom"):
            function(1.0, df)


def _scalar_betacf(a, b, x):
    """The modified Lentz continued fraction one value at a time, on Python
    floats: the scalar loop that the array code replaced, kept as its
    oracle."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < 1e-300:
                d = 1e-300
            c = 1.0 + aa / c
            if abs(c) < 1e-300:
                c = 1e-300
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("no convergence")


def _two_step_betacf(a, b, x, clamps):
    """The array continued fraction with its even and odd Lentz updates
    written out one after the other, as ``special._betacf`` had it; kept
    as its oracle. ``clamps`` counts, per site, the entries lifted to
    1e-300: the start, the even step's d and c, the odd step's d and c."""
    out = np.empty_like(x)
    left = np.arange(x.size)
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def lift(v, site):
        small = np.abs(v) < 1e-300
        clamps[site] += int(np.count_nonzero(small))
        v[small] = 1e-300

    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    lift(d, 0)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, 501):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        lift(d, 1)
        c = 1.0 + aa / c
        lift(c, 2)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        lift(d, 3)
        c = 1.0 + aa / c
        lift(c, 4)
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < 1e-15
        if done.any():
            out[left[done]] = h[done]
            if done.all():
                return out
            keep = ~done
            left, x, c, d, h = (v[keep] for v in (left, x, c, d, h))
    raise RuntimeError(f"incomplete beta continued fraction did not converge "
                       f"(a={a}, b={b}, x={x[0]}, entry {int(left[0])})")


def _outcome(fn, *args):
    try:
        return "value", fn(*args).tobytes()
    except RuntimeError as exc:
        return "raised", str(exc)


def test_betacf_bit_identical_to_the_two_step_loop():
    # On shapes that are multiples of 1/4 and x on a 1/256 grid, Lentz's d
    # and c hit zero exactly now and then, so the clamps take part; the
    # first three pairs are known to reach the in-loop clamps. Entries near
    # x = 1 need more than 500 rounds, and both forms then raise alike.
    rng = np.random.default_rng(18)
    grid = np.arange(1, 257) / 256.0
    pairs = [(0.25, 4.75), (0.25, 2.0), (2.0, 7.0)]
    pairs += [tuple(float(v) for v in rng.integers(1, 33, 2) / 4.0) for _ in range(40)]
    pairs += [tuple(float(v) for v in rng.uniform(0.05, 60.0, 2)) for _ in range(40)]
    clamps = [0] * 5
    for a, b in pairs:
        for x in (grid, rng.random(64), grid[grid < (a + 1.0) / (a + b + 2.0)]):
            assert (_outcome(special._betacf, a, b, x.copy())
                    == _outcome(_two_step_betacf, a, b, x.copy(), clamps)), (a, b)
    assert clamps[0] and clamps[1] and clamps[3] and clamps[4], clamps


def _branchy_t_cdf(t, df):
    """``student_t_cdf`` as it was, with its own t = 0 and t = +-inf
    branches; kept as the oracle of the form built on the two-sided p."""
    if not 0.0 < df < math.inf:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df}")
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def _same_float(got, want):
    return type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


def test_student_t_cdf_bit_identical_to_the_branchy_form():
    rng = np.random.default_rng(19)
    edges = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf]
    for df in (1.0, 2.0, 3.5, 18.0, 1e4):
        for t in edges:
            assert _same_float(student_t_cdf(t, df), _branchy_t_cdf(t, df)), (t, df)
    for t, df in zip(rng.standard_t(3.0, 400) * rng.choice([0.01, 1.0, 30.0], 400),
                     10.0 ** rng.uniform(0.0, 3.0, 400)):
        t, df = float(t), float(df)
        assert _same_float(student_t_cdf(t, df), _branchy_t_cdf(t, df)), (t, df)
    for t, df in [(math.nan, 4.0)] + [(1.0, bad) for bad in
                                      (0.0, -1.0, math.nan, math.inf, -math.inf)]:
        with pytest.raises(ValueError) as got:
            student_t_cdf(t, df)
        with pytest.raises(ValueError) as want:
            _branchy_t_cdf(t, df)
        assert str(got.value) == str(want.value)


def _scalar_two_sided_p(t, df):
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    a, b, x = 0.5 * df, 0.5, df / (df + t * t)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _scalar_betacf(a, b, x) / a
    return 1.0 - front * _scalar_betacf(b, a, 1.0 - x) / b


@pytest.mark.parametrize("df", [1.0, 2.0, 3.5, 18.0, 250.0])
def test_two_sided_p_on_an_array_equals_the_scalar_loop_bitwise(df):
    rng = np.random.default_rng(int(df * 10))
    t = rng.standard_t(df, 3000) * rng.choice([0.01, 1.0, 30.0], 3000)
    t = np.concatenate((t, [0.0, -0.0, math.inf, -math.inf, 1e-200, -5e-324,
                            1e160, -1e300, 1.0]))
    got = student_t_two_sided_p(t, df)
    assert got.shape == t.shape
    want = np.array([_scalar_two_sided_p(float(v), df) for v in t])
    assert np.array_equal(got, want)
    assert all(student_t_two_sided_p(float(v), df) == w for v, w in zip(t[:50], want))
    grid = t[:12].reshape(3, 4)
    assert np.array_equal(student_t_two_sided_p(grid, df), want[:12].reshape(3, 4))


def test_two_sided_p_on_an_array_matches_scipy_sf():
    rng = np.random.default_rng(12)
    for df in (1.0, 4.5, 18.0, 60.0):
        t = rng.uniform(-8.0, 8.0, 500)
        np.testing.assert_allclose(student_t_two_sided_p(t, df),
                                   2.0 * sps.stdtr(df, -np.abs(t)),
                                   rtol=1e-10, atol=1e-14)


def test_two_sided_p_on_arrays_edge_cases():
    assert student_t_two_sided_p(np.array([]), 3.0).shape == (0,)
    assert np.array_equal(student_t_two_sided_p(np.array([0.0, math.inf]), 3.0),
                          [1.0, 0.0])
    with pytest.raises(ValueError, match="NaN"):
        student_t_two_sided_p(np.array([1.0, math.nan]), 4.0)
    for df in (0.0, math.nan):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_two_sided_p(np.array([1.0]), df)

"""Student-t CDF and regularized incomplete beta, checked against frozen
40-digit reference values, closed forms, and scipy.special."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special as sps

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
    for df in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="degrees of freedom"):
            function(1.0, df)
